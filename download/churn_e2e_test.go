package download_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/download"
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

// TestRuntimeCoverage pins what each runtime serves: every option runs
// on tcp as on des — faults beyond T, hardening, and a rejoining churn
// peer with no CheckpointDir, which checkpoints to a temporary dir — and
// the one option that means nothing on des, CheckpointDir, is refused
// there as misconfiguration.
func TestRuntimeCoverage(t *testing.T) {
	t.Run("checkpoint dir on des", func(t *testing.T) {
		_, err := download.Run(download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64,
			CheckpointDir: "/tmp/ckpt",
		})
		if err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
			t.Fatalf("err = %v, want CheckpointDir refused on des", err)
		}
	})
	cases := []struct {
		name     string
		opts     download.Options
		hardened bool
	}{
		{"excess faults on tcp", download.Options{
			Protocol: download.Naive, N: 6, T: 1, L: 64, TCP: true,
			Behavior: download.CrashImmediate, Faulty: 3, AllowExcessFaults: true,
		}, false},
		{"hardening on tcp", download.Options{
			Protocol: download.Committee, N: 4, T: 1, L: 64, TCP: true,
		}, true},
		{"tcp churn rejoin without checkpoint dir", download.Options{
			Protocol: download.Naive, N: 4, T: 1, L: 64, TCP: true,
			Churn: []download.ChurnPeer{{Peer: 0, CrashAfter: 1, Downtime: 1}},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := download.Run
			if tc.hardened {
				run = download.RunHardened
			}
			rep, err := run(tc.opts)
			if err != nil {
				t.Fatalf("err = %v, want the run to be served", err)
			}
			if !rep.Correct {
				t.Errorf("incorrect run: %v", rep.Failures)
			}
			if tc.hardened && (rep.Hardening == nil || len(rep.Hardening.Attempts) != 1) {
				t.Errorf("Hardening = %+v, want one clean attempt", rep.Hardening)
			}
			if len(tc.opts.Churn) > 0 && rep.Rejoins != 1 {
				t.Errorf("Rejoins = %d, want 1", rep.Rejoins)
			}
		})
	}
}
