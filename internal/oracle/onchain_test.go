package oracle_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/oracle"
	"repro/internal/protocols/committee"
	"repro/internal/sim"
)

func TestOnChainQuorum(t *testing.T) {
	c := oracle.NewOnChain(2) // need 3 identical
	a := []int64{1, 2, 3}
	b := []int64{9, 9, 9}
	if c.Submit(0, a) {
		t.Fatal("published after one vote")
	}
	if c.Submit(0, a) {
		t.Fatal("duplicate vote counted")
	}
	if c.Submit(1, b) || c.Submit(2, b) {
		t.Fatal("minority array published")
	}
	if c.Submit(1, a) {
		t.Fatal("published after two votes")
	}
	if !c.Submit(3, a) {
		t.Fatal("not published after three votes")
	}
	got, ok := c.Published()
	if !ok || len(got) != 3 || got[0] != 1 {
		t.Fatalf("published = %v, %v", got, ok)
	}
	// Post-publication submissions are ignored.
	if c.Submit(4, b) {
		t.Fatal("accepted after publication")
	}
}

func TestOnChainDistinguishesArrays(t *testing.T) {
	c := oracle.NewOnChain(1) // need 2
	if c.Submit(0, []int64{5}) {
		t.Fatal("early publish")
	}
	if c.Submit(1, []int64{6}) {
		t.Fatal("different arrays must not pool votes")
	}
	if !c.Submit(2, []int64{5}) {
		t.Fatal("matching array did not publish")
	}
}

func TestFullPipeline(t *testing.T) {
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byzNodes := adversary.SpreadFaulty(cfg.Nodes, cfg.NodeFaults)
	runner := oracle.NewRunner(cfg, committee.New, sim.Byzantines(byzNodes, committee.NewLiar), adversary.NewRandomUnit(cfg.Seed))
	res, err := oracle.RunPipeline(cfg, feeds, runner, byzNodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForgedAccepted {
		t.Fatal("forged array published")
	}
	if res.Published == nil {
		t.Fatal("honest quorum never formed")
	}
	if !res.ODDHolds {
		t.Fatal("published values outside honest range")
	}
	if !res.ODC.AllAgree {
		t.Fatal("honest nodes disagreed despite correct downloads")
	}
}

func TestPipelineQuorumNeedsHonestAgreement(t *testing.T) {
	// A runner whose downloads fail forces the direct-read fallback,
	// which still yields identical per-node arrays — publication must
	// succeed through the fallback too.
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byzNodes := adversary.SpreadFaulty(cfg.Nodes, cfg.NodeFaults)
	runner := oracle.NewRunner(cfg, committee.New, sim.Byzantines(byzNodes, committee.NewLiar), adversary.NewRandomUnit(cfg.Seed+5))
	res, err := oracle.RunPipeline(cfg, feeds, runner, byzNodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == nil || !res.ODDHolds {
		t.Fatalf("pipeline failed: published=%v odd=%v", res.Published != nil, res.ODDHolds)
	}
}
