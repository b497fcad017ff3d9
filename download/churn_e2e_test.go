package download_test

import (
	"errors"
	"testing"
	"time"

	"repro/download"
	"repro/internal/harden"
	"repro/internal/netrt"
)

// TestChurnOverTCPViaOptions drives the socket runtime through the public
// API: the churn peer crashes mid-run, rejoins through the durable
// checkpoint store — in CheckpointDir, or with none given in a temporary
// directory of the run's own — and the run stays correct.
func TestChurnOverTCPViaOptions(t *testing.T) {
	for _, tc := range []struct {
		name, dir string
	}{{"checkpoint dir", t.TempDir()}, {"no checkpoint dir", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := download.Run(download.Options{
				Protocol: download.Naive,
				N:        4, T: 1, L: 128,
				Seed:          12,
				TCP:           true,
				CheckpointDir: tc.dir,
				Churn:         []download.ChurnPeer{{Peer: 0, CrashAfter: 2, Downtime: 0.2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("incorrect: %v", rep.Failures)
			}
			if rep.Rejoins != 1 || rep.CheckpointRestores != 1 {
				t.Errorf("Rejoins = %d, CheckpointRestores = %d, want 1 each", rep.Rejoins, rep.CheckpointRestores)
			}
			cp := rep.PerPeer[0]
			if cp.Honest || !cp.Rejoined || !cp.Terminated {
				t.Errorf("churn peer flags = %+v, want rejoined+terminated, not honest", cp)
			}
		})
	}
}

// TestDeadlineOverTCP: on TCP, Deadline is the run's wall-clock bound in
// seconds, and a run past it returns netrt's TimeoutError.
func TestDeadlineOverTCP(t *testing.T) {
	_, err := download.Run(download.Options{
		Protocol: download.Committee, N: 8, T: 2, L: 4096, Seed: 3,
		TCP: true, Deadline: 0.001,
	})
	var terr *netrt.TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v (%T), want *netrt.TimeoutError", err, err)
	}
	if terr.After != time.Millisecond {
		t.Errorf("timed out after %v, want 1ms", terr.After)
	}
}

// TestUnsupportedErrorTyped pins that the residual capability gaps come
// back as *download.UnsupportedError, hardening and faults beyond T on
// TCP among them, so an
// orchestrator branches on the gap instead of string-matching: the
// conformance runner (conformance.RunCase) prints such a cell as skipped.
func TestUnsupportedErrorTyped(t *testing.T) {
	cases := []struct {
		name     string
		opts     download.Options
		runtime  string
		hardened bool
	}{
		{"checkpoint dir on des", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			CheckpointDir: "/tmp/ckpt",
		}, "des", false},
		{"excess faults on tcp", download.Options{
			Protocol: download.Naive, N: 6, T: 1, L: 64, TCP: true,
			Behavior: download.CrashImmediate, Faulty: 3, AllowExcessFaults: true,
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
	// A closed gap stays closed: a rejoining tcp churn peer with no
	// CheckpointDir checkpoints to a temporary dir instead of being refused.
	t.Run("tcp churn rejoin without checkpoint dir", func(t *testing.T) {
		rep, err := download.Run(download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64, TCP: true,
			Churn: []download.ChurnPeer{{Peer: 0, CrashAfter: 1, Downtime: 1}},
		})
		var ue *download.UnsupportedError
		if errors.As(err, &ue) {
			t.Fatalf("err = %v, want the run to be supported", ue)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Rejoins != 1 {
			t.Errorf("Correct = %v, Rejoins = %d, want a correct run with 1 rejoin", rep.Correct, rep.Rejoins)
		}
	})
}
