// Package regression pins exact deterministic outcomes: the des runtime
// promises bit-for-bit reproducibility from a seed, so any change to
// these goldens signals a semantic change to the engine, the adversary
// stream, or a protocol — which must be deliberate and documented.
//
// Pinned values live in testdata/goldens.json (small cells, every fault
// plane), testdata/table1.json (Table 1's cells at the quick and the
// paper's scale) and the tables of EXPERIMENTS.md (every experiment at
// full size). When a semantic change is intentional, regenerate all three
// with:
//
//	go test ./internal/regression -update
//
// and commit the diff (it is the reviewable record of the change).
package regression

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/*.json and EXPERIMENTS.md's tables from the current engine")

// golden captures one pinned execution. The source-tier counters are
// omitted when zero, so pre-existing goldens keep their exact encoding.
type golden struct {
	Q      int    `json:"q"`
	Msgs   int    `json:"msgs"`
	Events int    `json:"events"`
	Time   string `json:"time"` // %.4f
	// Resilience counters, pinned only for flaky-source specs.
	SrcFailures  int `json:"src_failures,omitempty"`
	SrcRetries   int `json:"src_retries,omitempty"`
	BreakerOpens int `json:"breaker_opens,omitempty"`
	Rejoins      int `json:"rejoins,omitempty"`
}

// frozen is one named spec whose outcome is pinned.
type frozen struct {
	name string
	spec func() *sim.Spec
}

func freeze() []frozen {
	const seed = 1234
	mk := func(n, t, L int, factory func(sim.PeerID) sim.Peer, faults sim.Faults) func() *sim.Spec {
		return func() *sim.Spec {
			return &sim.Spec{
				Config:  sim.Config{N: n, T: t, L: L, MsgBits: 128, Seed: seed},
				NewPeer: factory,
				Delays:  adversary.NewRandomUnit(seed),
				Faults:  faults,
			}
		}
	}
	crash := func(n, t int) sim.Faults {
		f := adversary.SpreadFaulty(n, t)
		return sim.Faults{Fates: adversary.NewCrashRandom(seed, f, 10*n)}
	}
	byz := func(n, t int, b func(sim.PeerID, *sim.Knowledge) sim.Peer) sim.Faults {
		return sim.Faults{Fates: sim.Byzantines(adversary.SpreadFaulty(n, t), b)}
	}
	// srcFaulted overlays a seeded source fault plan (and optionally one
	// crash-rejoin churn peer) on a spec: pins the full retry/backoff/
	// breaker event stream, not just the clean-path schedule.
	srcFaulted := func(spec func() *sim.Spec, plan string, churn ...sim.Fate) func() *sim.Spec {
		return func() *sim.Spec {
			s := spec()
			p, err := source.ParsePlan(plan)
			if err != nil {
				panic(err)
			}
			s.SourceFaults = p
			s.Faults.Fates = append(s.Faults.Fates, churn...)
			return s
		}
	}
	return []frozen{
		{"naive", mk(6, 2, 512, naive.New, byz(6, 2, adversary.NewSilent))},
		{"naive-flaky-source", srcFaulted(
			mk(6, 2, 512, naive.New, byz(6, 2, adversary.NewSilent)),
			"fail=0.2,timeout=0.1,outage=0..2,seed=11")},
		{"crashk-flaky-churn", srcFaulted(
			mk(12, 6, 2048, crashk.New, crash(12, 5)),
			"fail=0.15,outage=2..4,seed=13",
			sim.Fate{Peer: 11, CrashAfter: 3, Downtime: 2})},
		{"committee-flaky-source", srcFaulted(
			mk(9, 4, 540, committee.New, byz(9, 4, committee.NewLiar)),
			"fail=0.2,latency=0.3,seed=17")},
		{"naive-batched", mk(6, 2, 512, naive.NewBatched(64), byz(6, 2, adversary.NewSilent))},
		{"crash1", mk(8, 1, 1024, crash1.New, crash(8, 1))},
		{"crashk", mk(12, 6, 2048, crashk.New, crash(12, 6))},
		{"crashk-fast", mk(12, 6, 2048, crashk.NewFast, crash(12, 6))},
		{"committee", mk(9, 4, 540, committee.New, byz(9, 4, committee.NewLiar))},
		{"committee-equivocator", mk(9, 4, 540, committee.New, byz(9, 4, committee.NewEquivocator))},
		{"twocycle", mk(128, 16, 4096, twocycle.New, byz(128, 16, segproto.NewColludingLiar))},
		{"multicycle", mk(128, 16, 4096, multicycle.New, byz(128, 16, segproto.NewColludingLiar))},
		// Segment-engine shapes the two rows above do not reach: a derived
		// m = 3 with k low enough that the colluders' forgery enters the
		// trees, a forced m that does not divide L, and four cycles.
		{"twocycle-m3-forged", mk(64, 4, 4096,
			twocycle.NewWithOptions(twocycle.Options{ForceThreshold: 4}), byz(64, 4, segproto.NewColludingLiar))},
		{"twocycle-force5", mk(128, 16, 4096,
			twocycle.NewWithOptions(twocycle.Options{ForceSegments: 5}), byz(128, 16, segproto.NewColludingLiar))},
		{"multicycle-force8", mk(128, 16, 4096,
			multicycle.NewWithOptions(multicycle.Options{ForceSegments: 8}), byz(128, 16, segproto.NewColludingLiar))},
	}
}

// capture projects a result onto the pinned fields.
func capture(res *sim.Result) golden {
	return golden{
		Q: res.Q, Msgs: res.Msgs, Events: res.Events,
		Time:        fmt.Sprintf("%.4f", res.Time),
		SrcFailures: res.SourceFailures, SrcRetries: res.SourceRetries,
		BreakerOpens: res.BreakerOpens, Rejoins: res.Rejoins,
	}
}

const goldenPath = "testdata/goldens.json"

// writeJSON rewrites one pinned file under -update.
func writeJSON[V any](t *testing.T, path string, pinned map[string]V) {
	t.Helper()
	data, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s with %d rows", path, len(pinned))
}

func loadGoldens(t *testing.T) map[string]golden {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("load goldens (regenerate with -update): %v", err)
	}
	var pinned map[string]golden
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return pinned
}

func TestGoldens(t *testing.T) {
	if *update {
		pinned := make(map[string]golden, len(freeze()))
		for _, g := range freeze() {
			res, err := des.New().Run(g.spec())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s incorrect: %v", g.name, res.Failures)
			}
			pinned[g.name] = capture(res)
		}
		writeJSON(t, goldenPath, pinned)
		return
	}
	pinned := loadGoldens(t)
	for _, g := range freeze() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			want, ok := pinned[g.name]
			if !ok {
				t.Fatalf("no pinned values for %s (regenerate with -update)", g.name)
			}
			res, err := des.New().Run(g.spec())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res)
			}
			got := capture(res)
			if got != want {
				t.Errorf("golden drift:\n got  %+v\n want %+v", got, want)
			}
		})
	}
	// Every pinned name must still have a spec; a silently dropped row
	// would otherwise pass forever.
	known := make(map[string]bool)
	for _, g := range freeze() {
		known[g.name] = true
	}
	for name := range pinned {
		if !known[name] {
			t.Errorf("pinned golden %q has no spec", name)
		}
	}
}
