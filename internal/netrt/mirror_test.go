package netrt_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

func tcpMirrors(t *testing.T, s string) *source.MirrorPlan {
	t.Helper()
	p, err := source.ParseMirrorPlan(s)
	if err != nil {
		t.Fatalf("ParseMirrorPlan(%q): %v", s, err)
	}
	return p
}

// TestMirrorHonestFleetOverTCP: QUERY frames draw QPROOF replies, every
// proof verifies against the pushed ROOT, and the download completes
// with Q = L and zero fallbacks.
func TestMirrorHonestFleetOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 4, T: 0, L: 256, MsgBits: 64, Seed: 31,
		NewPeer: naive.NewBatched(32),
		Mirrors: tcpMirrors(t, "mirrors=4,leaf=64,seed=5"),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d, want 256 (verified bits charge exactly once)", res.Q)
	}
	if res.MirrorHits == 0 || res.ProofFailures != 0 || res.FallbackQueries != 0 {
		t.Errorf("honest fleet counters: hits=%d pfails=%d fallbacks=%d",
			res.MirrorHits, res.ProofFailures, res.FallbackQueries)
	}
}

// TestMirrorByzantineMajorityOverTCP: 3 of 5 mirrors Byzantine with
// mixed behaviors. Clients reject every bad proof, fall back via
// QUERYSRC, and the download stays exact with Q = L.
func TestMirrorByzantineMajorityOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 4, T: 0, L: 256, MsgBits: 64, Seed: 33,
		NewPeer: naive.NewBatched(32),
		Mirrors: tcpMirrors(t, "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=9"),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("Byzantine mirrors broke correctness: %v", res)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d under fallback, want 256", res.Q)
	}
	if res.ProofFailures == 0 || res.FallbackQueries == 0 {
		t.Errorf("Byzantine majority: pfails=%d fallbacks=%d, want both > 0",
			res.ProofFailures, res.FallbackQueries)
	}
}

// TestMirrorAllForgeOverTCP: every mirror forges proofs, so every query
// must fall back — zero hits, fallbacks equal to serve attempts, and the
// authoritative tier carries the whole Q = L download.
func TestMirrorAllForgeOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 192, MsgBits: 64, Seed: 35,
		NewPeer: naive.NewBatched(32),
		Mirrors: tcpMirrors(t, "mirrors=3,byz=3,behavior=forge,seed=4"),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.MirrorHits != 0 {
		t.Errorf("all-forge fleet produced %d verified hits", res.MirrorHits)
	}
	if res.FallbackQueries == 0 || res.ProofFailures == 0 {
		t.Errorf("no fallbacks/proof failures: %d/%d", res.FallbackQueries, res.ProofFailures)
	}
	if res.Q != 192 {
		t.Errorf("Q = %d, want 192", res.Q)
	}
}

// TestMirrorWithSourceFaultsOverTCP layers mirrors over a flaky
// authoritative tier: fallback queries ride QUERYSRC into the
// QERR/retry/breaker machinery and the run still completes.
func TestMirrorWithSourceFaultsOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 128, MsgBits: 64, Seed: 37,
		NewPeer:      naive.NewBatched(32),
		Mirrors:      tcpMirrors(t, "mirrors=2,byz=2,behavior=wrong,seed=6"),
		SourceFaults: &source.FaultPlan{Seed: 3, FailRate: 0.3},
		SourcePolicy: fastSource,
		Timeout:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.FallbackQueries == 0 {
		t.Errorf("all-wrong fleet recorded no fallbacks")
	}
	if res.SourceFailures == 0 {
		t.Errorf("flaky authoritative tier recorded no failures")
	}
}

// TestMirrorFaultPlanOverTCP drops and duplicates frames under a
// Byzantine fleet: lost QPROOFs are recovered by query re-issue,
// duplicated ones are deduped, and the proof path still converges.
func TestMirrorFaultPlanOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 128, MsgBits: 64, Seed: 39,
		NewPeer: naive.NewBatched(16),
		Mirrors: tcpMirrors(t, "mirrors=4,byz=2,behavior=mixed,leaf=32,seed=7"),
		Faults: &netrt.FaultPlan{
			Seed: 11, Drop: 0.15, Dup: 0.1,
		},
		Resilience: netrt.Resilience{QueryTimeout: 150 * time.Millisecond},
		Timeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect under frame faults: %v", res)
	}
	if res.MirrorHits == 0 {
		t.Errorf("no verified mirror hits under a half-honest fleet")
	}
}

// queryOncePeer queries the first 64 bits and never terminates.
type queryOncePeer struct{}

func (queryOncePeer) Init(ctx sim.Context) {
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	ctx.Query(0, idx)
}
func (queryOncePeer) OnMessage(sim.PeerID, sim.Message) {}
func (queryOncePeer) OnQueryReply(sim.QueryReply)       {}

// TestTimedOutRunPublishesMirrorMetrics: a run that times out still
// publishes the query plane's dr_mirror_* totals, settled by every client
// before Run returns its *TimeoutError.
func TestTimedOutRunPublishesMirrorMetrics(t *testing.T) {
	reg := obs.New()
	_, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 256, MsgBits: 64, Seed: 31,
		NewPeer: func(sim.PeerID) sim.Peer { return queryOncePeer{} },
		Mirrors: tcpMirrors(t, "mirrors=4,leaf=64,seed=5"),
		Metrics: reg,
		Label:   "once",
		Timeout: time.Second,
	})
	var terr *netrt.TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("error is %T, want *netrt.TimeoutError: %v", err, err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"dr_mirror_hits_total", "dr_mirror_proof_failures_total", "dr_mirror_fallback_total"} {
		if _, ok := snap.Series(name, map[string]string{"protocol": "once"}); !ok {
			t.Errorf("%s missing after a timed-out run", name)
		}
	}
	if s, _ := snap.Series("dr_mirror_hits_total", map[string]string{"protocol": "once"}); s.Value < 3 {
		t.Errorf("dr_mirror_hits_total = %v after each of 3 peers was served, want >= 3", s.Value)
	}
}
