package netrt

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/obs"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

// TestConfigLowering pins the adapter: every field of Config lowers to its
// twin in sim.Spec or Net, the fates keep their order (Absent's crashes
// first, then Churn), the run's timeout is the 30 s default, and Shards
// and ShardQueue change nothing. The benchmark's socket workloads run
// through Config, so this keeps them on the spec every other caller runs.
func TestConfigLowering(t *testing.T) {
	tl := obs.NewTimeline()
	cfg := Config{
		N: 6, T: 3, L: 128, MsgBits: 32, Seed: 9,
		NewPeer:       naive.New,
		Absent:        []sim.PeerID{4, 1},
		Churn:         []sim.ChurnPeer{{Peer: 2, CrashAfter: 5, Downtime: 0.1}},
		CheckpointDir: "ckpt",
		Faults:        &FaultPlan{Seed: 3, Drop: 0.1},
		SourceFaults:  &source.FaultPlan{Seed: 4, FailRate: 0.2},
		SourcePolicy:  source.Policy{BaseBackoff: 0.02},
		Shards:        2,
		ShardQueue:    1024,
		Resilience:    Resilience{RTO: time.Second},
		Input:         bitarray.New(128),
		Metrics:       obs.New(),
		Timeline:      tl,
		Label:         "lowered",
	}
	// checked names every field this test holds to its twin; a field
	// added to Config must join it.
	checked := map[string]bool{}
	check := func(field string, ok bool) {
		checked[field] = true
		if !ok {
			t.Errorf("Config.%s does not lower to its twin", field)
		}
	}
	spec, net := cfg.lower()
	c := &spec.Config
	check("N", c.N == cfg.N)
	check("T", c.T == cfg.T)
	check("L", c.L == cfg.L)
	check("MsgBits", c.MsgBits == cfg.MsgBits)
	check("Seed", c.Seed == cfg.Seed)
	check("Input", c.Input == cfg.Input)
	check("NewPeer", reflect.ValueOf(spec.NewPeer).Pointer() == reflect.ValueOf(cfg.NewPeer).Pointer())
	want := []sim.Fate{{Peer: 4, CrashAfter: 0, Downtime: -1}, {Peer: 1, CrashAfter: 0, Downtime: -1}, cfg.Churn[0]}
	fates := reflect.DeepEqual(spec.Faults, sim.Faults{Fates: want})
	check("Absent", fates)
	check("Churn", fates)
	check("CheckpointDir", net.CheckpointDir == cfg.CheckpointDir)
	check("Faults", net.Faults == cfg.Faults)
	check("SourceFaults", spec.SourceFaults == cfg.SourceFaults)
	check("SourcePolicy", spec.SourcePolicy == cfg.SourcePolicy)
	check("Resilience", net.Resilience == cfg.Resilience)
	check("Metrics", spec.Metrics == cfg.Metrics)
	check("Label", spec.Label == cfg.Label)
	spec.Observer.OnEvent(&sim.ObservedEvent{Kind: "crash", Peer: 1, Other: -1})
	check("Timeline", len(tl.Events()) == 1 && tl.Events()[0].Kind == "crash")
	if net.IdleTimeout != 0 || spec.Deadline != 0 || runTimeout(spec) != 30*time.Second {
		t.Errorf("idle %v, deadline %v, timeout %v: want the defaults, a 30 s run", net.IdleTimeout, spec.Deadline, runTimeout(spec))
	}
	if spec.Delays != nil || spec.Mirrors != nil || spec.Warm != nil || spec.Faults.AllowExcess {
		t.Errorf("lowered spec sets fields Config has no twin for: %+v", spec)
	}

	// Shards and ShardQueue lower to nothing.
	sharded := cfg
	sharded.Shards, sharded.ShardQueue = 0, 0
	sharded.NewPeer, cfg.NewPeer = nil, nil // funcs compare equal only when nil
	s1, n1 := cfg.lower()
	s2, n2 := sharded.lower()
	ignored := reflect.DeepEqual(s1, s2) && n1 == n2
	check("Shards", ignored)
	check("ShardQueue", ignored)

	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if !checked[f.Name] {
			t.Errorf("Config.%s is not held to a twin here", f.Name)
		}
	}
}

// TestAbsentValidation: an Absent peer is a fate, checked as every fate
// is: one out of range or listed twice is refused before the run, not run
// into an incorrect result.
func TestAbsentValidation(t *testing.T) {
	for name, absent := range map[string][]sim.PeerID{
		"above range": {99},
		"below range": {-1},
		"duplicate":   {2, 2},
	} {
		res, err := Run(Config{N: 4, T: 2, L: 64, MsgBits: 64, NewPeer: naive.New, Absent: absent})
		if err == nil {
			t.Errorf("%s: Absent %v accepted (Correct=%v)", name, absent, res.Correct)
		}
	}
}
