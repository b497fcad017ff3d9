package des_test

import (
	"testing"

	"repro/internal/des"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

func mustMirrors(t *testing.T, s string) *source.MirrorPlan {
	t.Helper()
	p, err := source.ParseMirrorPlan(s)
	if err != nil {
		t.Fatalf("ParseMirrorPlan(%q): %v", s, err)
	}
	return p
}

// TestMirrorHonestFleetTransparent: an all-honest mirror fleet is
// invisible to the protocol — identical output, Q, M, Time, and event
// count as the direct-oracle run; the only trace is the hit counters.
func TestMirrorHonestFleetTransparent(t *testing.T) {
	base, err := des.New().Run(naiveSpec(3))
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	spec := naiveSpec(3)
	spec.NewPeer = naive.New
	spec.Mirrors = mustMirrors(t, "mirrors=4,leaf=64,seed=5")
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("mirror run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("honest-mirror run failed: %v", res)
	}
	if res.Q != base.Q || res.Msgs != base.Msgs || res.Time != base.Time || res.Events != base.Events {
		t.Errorf("honest mirrors changed the execution: Q %d/%d msgs %d/%d time %v/%v events %d/%d",
			res.Q, base.Q, res.Msgs, base.Msgs, res.Time, base.Time, res.Events, base.Events)
	}
	if res.MirrorHits == 0 || res.ProofFailures != 0 || res.FallbackQueries != 0 {
		t.Errorf("honest fleet counters: hits=%d pfails=%d fallbacks=%d",
			res.MirrorHits, res.ProofFailures, res.FallbackQueries)
	}
}

// TestMirrorByzantineMajorityFallsBack: 3 of 5 mirrors Byzantine with
// mixed behaviors — every forged proof is rejected, peers fall back to
// the authoritative source, and correctness and Q = L are untouched.
func TestMirrorByzantineMajorityFallsBack(t *testing.T) {
	spec := naiveSpec(7)
	spec.NewPeer = naive.NewBatched(32)
	spec.Mirrors = mustMirrors(t, "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=9")
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("Byzantine mirrors must not break correctness: %v", res)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d under mirror fallback, want L = 256 (only verified bits charge)", res.Q)
	}
	if res.FallbackQueries == 0 || res.ProofFailures == 0 {
		t.Errorf("Byzantine majority produced pfails=%d fallbacks=%d, want both > 0",
			res.ProofFailures, res.FallbackQueries)
	}
	if res.MirrorHits == 0 {
		t.Errorf("2 honest mirrors of 5 never served a verified hit")
	}
}

// TestMirrorEveryBehaviorStaysCorrect sweeps each concrete Byzantine
// behavior under a Byzantine-majority fleet.
func TestMirrorEveryBehaviorStaysCorrect(t *testing.T) {
	for _, b := range []string{"wrong", "forge", "truncate", "reorder", "stale", "selective"} {
		t.Run(b, func(t *testing.T) {
			spec := naiveSpec(11)
			spec.NewPeer = naive.NewBatched(16)
			spec.Mirrors = &source.MirrorPlan{Mirrors: 4, Byz: 3, Behavior: b, LeafBits: 16, Seed: 3}
			res, err := des.New().Run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Correct {
				t.Fatalf("behavior %s broke correctness: %v", b, res)
			}
			if res.Q != 256 {
				t.Errorf("behavior %s: Q = %d, want 256", b, res.Q)
			}
			if res.FallbackQueries == 0 {
				t.Errorf("behavior %s: no fallbacks under a 3/4 Byzantine fleet", b)
			}
		})
	}
}

// TestMirrorWithSourceFaults layers the mirror tier over a faulty
// authoritative source: fallback queries then ride the retry/breaker
// client and still complete.
func TestMirrorWithSourceFaults(t *testing.T) {
	spec := naiveSpec(13)
	spec.NewPeer = naive.NewBatched(32)
	spec.Mirrors = mustMirrors(t, "mirrors=3,byz=3,behavior=forge,seed=2")
	spec.SourceFaults = mustPlan(t, "fail=0.3,seed=5")
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("mirrors over a flaky source must still complete: %v", res)
	}
	if res.FallbackQueries == 0 {
		t.Errorf("all-Byzantine fleet recorded no fallbacks")
	}
	if res.SourceFailures == 0 || res.SourceRetries == 0 {
		t.Errorf("flaky fallback path recorded failures=%d retries=%d",
			res.SourceFailures, res.SourceRetries)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d, want 256", res.Q)
	}
}

// TestMirrorCrash1Protocol runs a message-passing protocol (crash1)
// through the mirror tier: segment queries span leaf boundaries.
func TestMirrorCrash1Protocol(t *testing.T) {
	spec := &sim.Spec{
		Config:  sim.Config{N: 6, T: 1, L: 300, MsgBits: 64, Seed: 21},
		NewPeer: crash1.New,
		Delays:  naiveSpec(21).Delays,
		Mirrors: &source.MirrorPlan{Mirrors: 5, Byz: 2, Behavior: "mixed", LeafBits: 64, Seed: 4},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("crash1 under mirrors failed: %v", res)
	}
	if res.MirrorHits+res.FallbackQueries == 0 {
		t.Errorf("no mirror traffic recorded")
	}
}

// TestMirrorDeterministic: identical specs give identical results,
// counters included.
func TestMirrorDeterministic(t *testing.T) {
	run := func() *sim.Result {
		spec := naiveSpec(17)
		spec.NewPeer = naive.NewBatched(16)
		spec.Mirrors = mustMirrors(t, "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=6")
		res, err := des.New().Run(spec)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Q != b.Q || a.MirrorHits != b.MirrorHits ||
		a.ProofFailures != b.ProofFailures || a.FallbackQueries != b.FallbackQueries {
		t.Fatalf("mirror runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerPeer {
		x, y := a.PerPeer[i], b.PerPeer[i]
		if x.MirrorHits != y.MirrorHits || x.ProofFailures != y.ProofFailures ||
			x.FallbackQueries != y.FallbackQueries {
			t.Fatalf("peer %d counters diverged", i)
		}
	}
}
