package netrt_test

import (
	"testing"
	"time"

	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

// fastSource shortens the source resilience timings so breaker dynamics
// play out within a test-sized wall-clock budget.
var fastSource = source.Policy{
	BaseBackoff:      0.02,
	MaxBackoff:       0.1,
	BreakerThreshold: 2,
	BreakerCooldown:  0.1,
}

// TestSourceFlakyOverTCP runs naive against a source refusing 30% of
// fetches: every refusal comes back as a QERR frame, the client backs off
// and retries, and the run still downloads X exactly.
func TestSourceFlakyOverTCP(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:       sim.Config{N: 4, T: 0, L: 256, MsgBits: 64, Seed: 21},
		NewPeer:      naive.NewBatched(32),
		SourceFaults: &source.FaultPlan{Seed: 3, FailRate: 0.3},
		SourcePolicy: fastSource,
		Deadline:     30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect under flaky source: %v", res)
	}
	if res.SourceFailures == 0 || res.SourceRetries == 0 {
		t.Errorf("no source failures/retries recorded: failures=%d retries=%d",
			res.SourceFailures, res.SourceRetries)
	}
	if res.Q < 256 {
		t.Errorf("Q = %d < L: bits served without a full download", res.Q)
	}
}

// TestSourceOutageBreakerOverTCP starts the run inside a source outage
// window: consecutive QERR refusals must open each client's breaker
// (degraded mode, queries parked), and once the window heals, half-open
// probes recover the download. The run's dr_source_* series, folded
// from its qfail events and published from its PerPeer, equal the Result.
func TestSourceOutageBreakerOverTCP(t *testing.T) {
	reg := obs.New()
	res, err := netrt.Runner(netrt.Net{Resilience: netrt.Resilience{QueryTimeout: 100 * time.Millisecond}})(&sim.Spec{
		Config:       sim.Config{N: 4, T: 0, L: 128, MsgBits: 64, Seed: 22},
		NewPeer:      naive.NewBatched(32),
		SourceFaults: &source.FaultPlan{Seed: 5, Outages: []source.Window{{Start: 0, End: 0.7}}},
		SourcePolicy: fastSource,
		Deadline:     30,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect after source outage: %v", res)
	}
	if res.BreakerOpens == 0 {
		t.Errorf("outage never opened a breaker: %+v", res.PerPeer[0])
	}
	if res.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %v, want > 0", res.DegradedTime)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"dr_source_failures_total":      res.SourceFailures,
		"dr_source_retries_total":       res.SourceRetries,
		"dr_source_breaker_opens_total": res.BreakerOpens,
		"dr_source_deferred_total":      res.DeferredQueries,
	} {
		got := 0.0
		for _, m := range snap.Metrics {
			if m.Name == name {
				for _, s := range m.Series {
					got += s.Value
				}
			}
		}
		if int(got) != want {
			t.Errorf("%s = %v, the result says %d", name, got, want)
		}
	}
}

// TestSourceLostRepliesOverTCP injects lost replies (TimeoutRate): the hub
// stays silent, so recovery must come from the client's silence deadline —
// the pre-existing query retry path — not from QERR frames.
func TestSourceLostRepliesOverTCP(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{Resilience: netrt.Resilience{QueryTimeout: 60 * time.Millisecond}})(&sim.Spec{
		Config:       sim.Config{N: 4, T: 0, L: 256, MsgBits: 64, Seed: 23},
		NewPeer:      naive.NewBatched(64),
		SourceFaults: &source.FaultPlan{Seed: 7, TimeoutRate: 0.4},
		SourcePolicy: fastSource,
		Deadline:     30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect under lost replies: %v", res)
	}
	retries := 0
	for _, ps := range res.PerPeer {
		retries += ps.QueryRetries
	}
	if retries == 0 {
		t.Error("lost replies recovered without any query retry")
	}
}

// TestSourcePlanValidationOverTCP rejects malformed source plans up front.
func TestSourcePlanValidationOverTCP(t *testing.T) {
	_, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:       sim.Config{N: 4, T: 0, L: 64, MsgBits: 64, Seed: 1},
		NewPeer:      naive.New,
		SourceFaults: &source.FaultPlan{FailRate: 1.5},
	})
	if err == nil {
		t.Fatal("FailRate=1.5 accepted")
	}
}
