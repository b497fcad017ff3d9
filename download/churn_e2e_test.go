package download_test

import (
	"errors"
	"testing"
	"time"

	"repro/download"
	"repro/internal/harden"
)

// TestChurnOverLiveViaOptions drives the live (goroutine) runtime through
// the public API with a crash-rejoin churn peer composed with a flaky
// source: the rejoined peer finishes, honest peers are untouched.
func TestChurnOverLiveViaOptions(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive,
		N:        4, T: 1, L: 128,
		Seed:          11,
		Live:          true,
		LiveTimeScale: 200 * time.Microsecond,
		SourceFaults:  "fail=0.2,seed=3",
		Churn:         []download.ChurnPeer{{Peer: 0, CrashAfter: 2, Downtime: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	if rep.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", rep.Rejoins)
	}
	cp := rep.PerPeer[0]
	if cp.Honest || !cp.Crashed || !cp.Rejoined || !cp.Terminated {
		t.Errorf("churn peer flags = %+v, want crashed+rejoined+terminated, not honest", cp)
	}
	if rep.SourceRetries == 0 {
		t.Errorf("fail=0.2 produced no retries")
	}
}

// TestChurnOverTCPViaOptions drives the socket runtime through the public
// API: the churn peer crashes mid-run, rejoins through the durable
// checkpoint store in CheckpointDir, and the run stays correct.
func TestChurnOverTCPViaOptions(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.Naive,
		N:        4, T: 1, L: 128,
		Seed:          12,
		TCP:           true,
		CheckpointDir: t.TempDir(),
		Churn:         []download.ChurnPeer{{Peer: 0, CrashAfter: 2, Downtime: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	if rep.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", rep.Rejoins)
	}
	cp := rep.PerPeer[0]
	if cp.Honest || !cp.Rejoined || !cp.Terminated {
		t.Errorf("churn peer flags = %+v, want rejoined+terminated, not honest", cp)
	}
}

// TestUnsupportedErrorTyped pins that the residual capability gaps come
// back as *download.UnsupportedError, hardening on TCP among them, so an
// orchestrator branches on the gap instead of string-matching: the
// conformance runner (conformance.RunCase) prints such a cell as skipped.
func TestUnsupportedErrorTyped(t *testing.T) {
	cases := []struct {
		name     string
		opts     download.Options
		runtime  string
		hardened bool
	}{
		{"tcp churn rejoin without checkpoint dir", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64, TCP: true,
			Churn: []download.ChurnPeer{{Peer: 0, CrashAfter: 1, Downtime: 1}},
		}, "tcp", false},
		{"checkpoint dir on live", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64, Live: true,
			CheckpointDir: "/tmp/ckpt",
		}, "live", false},
		{"byzantine behavior on tcp", download.Options{
			Protocol: download.Committee, N: 4, T: 1, L: 64, TCP: true,
			Behavior: download.Liar,
		}, "tcp", false},
		{"hardening on tcp", download.Options{
			Protocol: download.Committee, N: 4, T: 1, L: 64, TCP: true,
		}, "tcp", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := download.Run
			if tc.hardened {
				run = func(o download.Options) (*download.Report, error) {
					return download.RunHardened(o, harden.Policy{})
				}
			}
			_, err := run(tc.opts)
			var ue *download.UnsupportedError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v (%T), want *download.UnsupportedError", err, err)
			}
			if ue.Runtime != tc.runtime {
				t.Errorf("Runtime = %q, want %q", ue.Runtime, tc.runtime)
			}
			if ue.Feature == "" || ue.Reason == "" {
				t.Errorf("typed error missing detail: %+v", ue)
			}
		})
	}
}
