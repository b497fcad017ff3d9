package storm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/download"
	"repro/internal/dst"
	"repro/internal/netrt"
	"repro/internal/sim"
)

// pinnedReplayPath is the committed acceptance storm's .dsr, living in
// the dst replay corpus so the conformance tier pins its bytes (sha256
// in replays.json) and the dst regression walker verifies it.
const pinnedReplayPath = "../dst/testdata/replays/" + PinnedReplayFile

// TestGenerateDeterministic pins the generator contract: the composed
// spec is a pure function of (parameters, storm seed). The committed
// .dsr depends on this — a drifting draw order silently changes every
// storm in the matrix.
func TestGenerateDeterministic(t *testing.T) {
	for _, proto := range []download.Protocol{download.Naive, download.CrashK, download.Committee} {
		for seed := int64(1); seed <= 20; seed++ {
			a := Generate(proto, 6, 3, 512, 128, seed)
			b := Generate(proto, 6, 3, 512, 128, seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: Generate not deterministic:\n%+v\n%+v", proto, seed, a, b)
			}
		}
	}
}

// TestGenerateRespectsFaultBudget checks every composition keeps
// absent + churn inside t and every churn peer distinct and in range.
func TestGenerateRespectsFaultBudget(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		spec := Generate(download.CrashK, 6, 4, 512, 128, seed)
		seen := make(map[int]bool)
		faulty := len(spec.Absent)
		for _, c := range spec.Churn {
			if c.Peer < 0 || c.Peer >= spec.N {
				t.Fatalf("seed %d: churn peer %d out of range", seed, c.Peer)
			}
			if seen[c.Peer] {
				t.Fatalf("seed %d: duplicate churn peer %d", seed, c.Peer)
			}
			seen[c.Peer] = true
			faulty++
		}
		for _, p := range spec.Absent {
			if seen[p] {
				t.Fatalf("seed %d: peer %d both absent and churning", seed, p)
			}
		}
		if faulty > spec.T {
			t.Fatalf("seed %d: %d faulty peers exceeds t=%d", seed, faulty, spec.T)
		}
	}
}

// TestCheckNegativeControls rigs outcomes and requires Check to flag
// them: a checker that cannot detect a wrong result gates nothing.
func TestCheckNegativeControls(t *testing.T) {
	spec := Generate(download.Naive, 6, 3, 256, 64, PinnedStormSeed)
	if spec.Rejoins() == 0 || spec.Mirrors == "" {
		t.Fatalf("pinned spec lost its planes: %+v", spec)
	}
	healthy := func() *sim.Result {
		res := &sim.Result{
			PerPeer:            make([]sim.PeerStats, spec.N),
			Correct:            true,
			Q:                  spec.L,
			Rejoins:            spec.Rejoins(),
			CheckpointSaves:    spec.Rejoins(),
			CheckpointRestores: spec.Rejoins(),
		}
		for _, c := range spec.Churn {
			if c.Downtime >= 0 {
				ps := &res.PerPeer[c.Peer]
				ps.Crashed, ps.Rejoined, ps.Terminated = true, true, true
			}
		}
		return res
	}
	if vs := Check(spec, healthy(), nil); len(vs) != 0 {
		t.Fatalf("healthy result flagged: %v", vs)
	}

	cases := []struct {
		name      string
		mutate    func(*sim.Result)
		invariant string
	}{
		{"wrong output", func(r *sim.Result) { r.Correct = false; r.Failures = []string{"peer 0 wrong"} }, "correctness"},
		{"q overflow", func(r *sim.Result) { r.Q = 10 * spec.L }, "envelope"},
		{"lost rejoin", func(r *sim.Result) {
			r.Rejoins = 0
			for i := range r.PerPeer {
				r.PerPeer[i].Rejoined = false
			}
		}, "rejoin"},
		{"cold restore", func(r *sim.Result) { r.CheckpointRestores = 0 }, "checkpoint"},
		{"swallowed proof failure", func(r *sim.Result) { r.ProofFailures = 3; r.FallbackQueries = 0 }, "mirror"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := healthy()
			tc.mutate(res)
			vs := Check(spec, res, nil)
			found := false
			for _, v := range vs {
				if v.Invariant == tc.invariant {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q violation reported: %v", tc.invariant, vs)
			}
		})
	}

	t.Run("timeout", func(t *testing.T) {
		vs := Check(spec, nil, os.ErrDeadlineExceeded)
		if len(vs) != 1 || vs[0].Invariant != "termination" {
			t.Fatalf("want one termination violation, got %v", vs)
		}
	})
}

// TestStormPinnedSeedOverTCP is the acceptance storm on real sockets:
// the pinned composition — source outage with transient failures, a
// Byzantine-majority mirror fleet, one crash-rejoin churn peer, one
// crash-for-good churn peer, an absent peer, network chaos, and a hub
// listener outage — must be survived with zero invariant violations, the
// rejoining peer restored from its durable checkpoint.
func TestStormPinnedSeedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket storm in -short mode")
	}
	spec := Generate(download.Naive, 6, 3, 256, 64, PinnedStormSeed)
	if spec.Rejoins() == 0 || spec.Mirrors == "" || spec.Net.Outage == nil || len(spec.Absent) == 0 {
		t.Fatalf("pinned storm no longer composes every plane: %+v", spec)
	}
	res, err := Run(spec, RunOptions{Timeout: 60 * time.Second})
	if vs := Check(spec, res, err); len(vs) != 0 {
		t.Fatalf("pinned storm violated: %v", vs)
	}
	if res.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (the outage severs every connection)", res.Reconnects)
	}
	if res.CheckpointRestores < 1 {
		t.Errorf("CheckpointRestores = %d, want >= 1", res.CheckpointRestores)
	}
}

// TestStormReplayPinned pins the committed acceptance .dsr byte for
// byte: rebuilding it from scratch — Generate at the pinned seed, the
// des bridge, a recorded schedule at the pinned schedule seed — must
// reproduce the committed file exactly, and the committed file must
// verify (correct outcome, matching event hash). Regenerate with
// STORM_GENERATE=1 after a deliberate engine or generator change (then
// bump conformance.CorpusVersion: replays.json pins the new sha256).
func TestStormReplayPinned(t *testing.T) {
	rec, err := PinnedReplay()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("STORM_GENERATE") != "" {
		if err := os.WriteFile(pinnedReplayPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", pinnedReplayPath, len(want))
		return
	}
	got, err := os.ReadFile(pinnedReplayPath)
	if err != nil {
		t.Fatalf("committed storm replay missing (regenerate with STORM_GENERATE=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed storm replay is not byte-identical to a fresh recording:\ncommitted %d bytes, rebuilt %d bytes\n(an intentional generator/engine change needs STORM_GENERATE=1 + a CorpusVersion bump)",
			len(got), len(want))
	}
	committed, err := dst.Load(pinnedReplayPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Verify(committed); err != nil {
		t.Fatalf("committed storm replay fails verification: %v", err)
	}
}

// TestRecordFinding exercises the failure-artifact path end to end with
// a socket-only violation: the des bridge passes, so the artifact pins
// the composition as an ExpectCorrect control plus a JSON finding.
func TestRecordFinding(t *testing.T) {
	spec := Generate(download.Naive, 6, 3, 256, 64, PinnedStormSeed)
	dir := t.TempDir()
	vs := []Violation{{Invariant: "termination", Detail: "synthetic socket-only failure"}}
	f, err := RecordFinding(spec, vs, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pending != nil || f.StacksFile != "" {
		t.Errorf("a finding with no timeout kept timeout evidence: %+v", f)
	}
	if f.DesReproduced {
		t.Error("healthy composition reported as des-reproduced")
	}
	if f.ReplayFile == "" {
		t.Fatal("no .dsr written for a registry protocol")
	}
	r, err := dst.Load(f.ReplayFile)
	if err != nil {
		t.Fatal(err)
	}
	if r.Expect != dst.ExpectCorrect {
		t.Errorf("socket-only finding pinned as %q, want %q", r.Expect, dst.ExpectCorrect)
	}
	if _, err := dst.Verify(r); err != nil {
		t.Errorf("finding replay fails verification: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "storm-naive-s3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Finding
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Spec, spec) || len(back.Violations) != 1 {
		t.Fatalf("finding JSON does not round-trip: %+v", back)
	}

	t.Run("crashk-fast replays", func(t *testing.T) {
		fast := Generate(download.CrashKFast, 6, 4, 256, 64, 1)
		f, err := RecordFinding(fast, vs, t.TempDir(), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.ReplayFile == "" {
			t.Fatal("no .dsr written for a crashk-fast finding")
		}
		r, err := dst.Load(f.ReplayFile)
		if err != nil {
			t.Fatal(err)
		}
		if r.Protocol != string(download.CrashKFast) {
			t.Errorf("the .dsr replays %q, want crashk-fast", r.Protocol)
		}
		if _, err := dst.Verify(r); err != nil {
			t.Errorf("crashk-fast finding replay fails verification: %v", err)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		dir := t.TempDir()
		pending := []netrt.PendingPeer{{ID: 2, Connected: true, LastFrame: "MSG",
			LastFrameAge: 1500 * time.Millisecond, Unacked: 7, AckBase: 41}}
		terr := &netrt.TimeoutError{After: time.Second, Pending: pending, Stacks: []byte("goroutine 1 [select]:\n")}
		f, err := RecordFinding(spec, vs, dir, false, fmt.Errorf("storm: %w", terr))
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Join(dir, "storm-naive-s3.stacks.txt"); f.StacksFile != want {
			t.Fatalf("stacks written to %q, want %q", f.StacksFile, want)
		}
		if stacks, err := os.ReadFile(f.StacksFile); err != nil || !bytes.Equal(stacks, terr.Stacks) {
			t.Errorf("stacks file holds %q (%v), want the goroutine profile", stacks, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "storm-naive-s3.json"))
		if err != nil {
			t.Fatal(err)
		}
		var back Finding
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Pending, pending) || back.StacksFile != f.StacksFile {
			t.Errorf("finding JSON keeps pending %+v and stacks %q, want %+v and %q",
				back.Pending, back.StacksFile, pending, f.StacksFile)
		}
	})
}
