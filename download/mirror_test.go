package download_test

import (
	"testing"

	"repro/download"
	"repro/internal/harden"
	"repro/internal/merkle"
)

// TestMirrorE2EDes: the one-call facade with a Byzantine-majority
// mirror fleet on the deterministic runtime — exact output, Q = L
// (verified bits charge once, wherever they came from), and the report
// accounts the proof failures and fallbacks.
func TestMirrorE2EDes(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive, N: 4, L: 256, Seed: 41,
		Mirrors: "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	if rep.Q != 256 {
		t.Errorf("Q = %d, want 256", rep.Q)
	}
	if rep.MirrorHits == 0 || rep.ProofFailures == 0 || rep.FallbackQueries == 0 {
		t.Errorf("mirror counters: hits=%d pfails=%d fallbacks=%d, want all > 0",
			rep.MirrorHits, rep.ProofFailures, rep.FallbackQueries)
	}
}

// TestMirrorE2ETCP: over real sockets the mirror replies ride QPROOF
// frames and the root rides a ROOT push; the facade surfaces the same
// counters.
func TestMirrorE2ETCP(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive, N: 3, L: 192, Seed: 45, TCP: true,
		Mirrors: "mirrors=3,byz=1,behavior=wrong,leaf=64,seed=3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	if rep.Q != 192 {
		t.Errorf("Q = %d, want 192", rep.Q)
	}
	if rep.MirrorHits == 0 {
		t.Error("no verified mirror hits over TCP")
	}
}

// TestMirrorOptionsValidated: a malformed plan fails fast at the
// options layer, before any runtime spins up.
func TestMirrorOptionsValidated(t *testing.T) {
	for _, bad := range []string{"mirrors=nope", "byz=2", "mirrors=2,behavior=liar", "mirrors=2,mirrors=3"} {
		_, err := download.Run(download.Options{
			Protocol: download.Naive, N: 2, L: 64, Mirrors: bad,
		})
		if err == nil {
			t.Errorf("plan %q accepted", bad)
		}
	}
}

// TestMirrorHardenedAudit: a mirror-tier run under the hardening
// supervisor automatically uses the Merkle commitment audit — a clean
// attempt's audit charges exactly one root fetch per honest peer
// instead of k sampled bits, so the hardened Q is L + merkle.RootBits.
func TestMirrorHardenedAudit(t *testing.T) {
	rep, err := download.RunHardened(download.Options{
		Protocol: download.Naive, N: 4, L: 512, Seed: 47,
		Mirrors: "mirrors=3,byz=1,behavior=stale,leaf=64,seed=3",
	}, harden.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	h := rep.Hardening
	if h == nil || h.Detected {
		t.Fatalf("hardening = %+v, want a clean undetected run", h)
	}
	if want := 4 * merkle.RootBits; h.AuditBits != want {
		t.Errorf("audit bits = %d, want %d (one root fetch per honest peer)", h.AuditBits, want)
	}
	if want := 512 + merkle.RootBits; rep.Q != want {
		t.Errorf("hardened Q = %d, want L + RootBits = %d", rep.Q, want)
	}
}
