package download_test

import (
	"strings"
	"testing"

	"repro/download"
)

// TestE2ESourceChaosByzantineMajority is the pinned end-to-end regression
// for the resilient source tier: a Byzantine majority of liars, a source
// outage spanning the opening of the download plus 25% transient query
// failures, and one crash-rejoin churn peer — and the honest peer still
// outputs X with its query bits bounded by L. The same scenario shape is
// pinned as a byte-identical replay in internal/dst/testdata/replays/
// naive-byzmajority-source-churn.dsr.
func TestE2ESourceChaosByzantineMajority(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive,
		N:        5, T: 4, L: 512,
		Seed:         42,
		Faulty:       3, // 3 of 5: Byzantine majority
		Behavior:     download.Liar,
		SourceFaults: "fail=0.25,outage=0..4,seed=7",
		Churn:        []download.ChurnPeer{{Peer: 2, CrashAfter: 2, Downtime: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("honest peer failed under source chaos + Byzantine majority: %v", rep.Failures)
	}
	for _, pp := range rep.PerPeer {
		if pp.Honest && !pp.Correct {
			t.Errorf("honest peer %d output wrong", pp.ID)
		}
	}
	if rep.BreakerOpens < 1 {
		t.Errorf("BreakerOpens = %d, want >= 1 (outage must trip the breaker)", rep.BreakerOpens)
	}
	if rep.SourceFailures == 0 || rep.SourceRetries == 0 {
		t.Errorf("no recovery work recorded: failures=%d retries=%d",
			rep.SourceFailures, rep.SourceRetries)
	}
	if rep.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", rep.Rejoins)
	}
	// Bounded query bits: retries and breaker probes are recovery
	// accounting, never charged as query complexity — honest naive peers
	// pay exactly L despite every failed attempt.
	if rep.Q != 512 {
		t.Errorf("Q = %d, want exactly L=512 (recovery must not inflate Q)", rep.Q)
	}
	if rep.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %v, want > 0", rep.DegradedTime)
	}
}

// TestSourceFaultOptionValidation pins the option-level rejections, and
// that a tcp churn rejoin with no CheckpointDir is no longer one of them.
func TestSourceFaultOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts download.Options
		want string
	}{
		{"bad plan", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			SourceFaults: "fail=2",
		}, "outside [0, 1)"},
		{"unknown field", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			SourceFaults: "frobnicate=1",
		}, "unknown plan field"},
		{"checkpoint dir off tcp", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			CheckpointDir: "/tmp/ckpt",
			Churn:         []download.ChurnPeer{{Peer: 1, CrashAfter: 2, Downtime: 1}},
		}, "TCP runtime only"},
		{"churn peer out of range", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			Churn: []download.ChurnPeer{{Peer: 7, CrashAfter: 2, Downtime: 1}},
		}, "outside [0, N)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := download.Run(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// A rejoining churn peer on tcp needs a checkpoint dir, but the options
	// need not name one: with none given the run checkpoints to a
	// temporary dir of its own, so validation lets the options through.
	t.Run("churn rejoin on tcp needs checkpoint dir", func(t *testing.T) {
		rep, err := download.Run(download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			TCP:   true,
			Churn: []download.ChurnPeer{{Peer: 1, CrashAfter: 2, Downtime: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.CheckpointRestores != 1 {
			t.Errorf("Correct = %v, CheckpointRestores = %d, want a correct run with 1 restore",
				rep.Correct, rep.CheckpointRestores)
		}
	})
}

// TestSourceFaultsOverTCPViaOptions drives the TCP runtime through the
// public API with a flaky source.
func TestSourceFaultsOverTCPViaOptions(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive,
		N:        4, T: 0, L: 128,
		Seed:         9,
		TCP:          true,
		SourceFaults: "fail=0.4,seed=3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	if rep.SourceFailures == 0 {
		t.Error("flaky source injected no failures")
	}
}
