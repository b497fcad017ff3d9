package regression

import (
	"encoding/json"
	"os"
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

// table1Row pins the paper metrics of one Table-1 cell. AvgQ and VTime
// are exact float64 values: JSON encodes a float64 in the shortest form
// that reads back to the same bits.
type table1Row struct {
	Q      int     `json:"q"`
	AvgQ   float64 `json:"avg_q"`
	Msgs   int     `json:"msgs"`
	Events int     `json:"events"`
	VTime  float64 `json:"vtime"`
}

const (
	table1Path = "testdata/table1.json"
	table1Seed = 7
)

// table1Cell is one Table-1 protocol row at one scale, named
// "<scale>/<protocol>".
type table1Cell struct {
	name string
	spec *sim.Spec
}

// table1Cells builds Table 1's protocol rows at the quick (n = 128,
// L = 2^12) and full (n = 256, L = 2^14, the paper's scale) sizes. Each
// cell's delay seed is seed + len(protocol name), so the rows match the
// Table-1 numbers EXPERIMENTS.md reports.
func table1Cells(seed int64) []table1Cell {
	var cells []table1Cell
	for _, scale := range []struct {
		name string
		n, L int
	}{{"quick", 128, 1 << 12}, {"full", 256, 1 << 14}} {
		n, L := scale.n, scale.L
		b := max(L/n, 64)
		byz := func(tf int, liar func(sim.PeerID, *sim.Knowledge) sim.Peer) sim.FaultSpec {
			return sim.FaultSpec{
				Model:        sim.FaultByzantine,
				Faulty:       adversary.SpreadFaulty(n, tf),
				NewByzantine: liar,
			}
		}
		crash := func(tf int) sim.FaultSpec {
			f := adversary.SpreadFaulty(n, tf)
			return sim.FaultSpec{
				Model: sim.FaultCrash, Faulty: f,
				Crash: adversary.NewCrashRandom(seed, f, 20*n),
			}
		}
		cell := func(name string, tf int, factory func(sim.PeerID) sim.Peer, faults sim.FaultSpec) table1Cell {
			return table1Cell{scale.name + "/" + name, &sim.Spec{
				Config:  sim.Config{N: n, T: tf, L: L, MsgBits: b, Seed: seed},
				NewPeer: factory,
				Delays:  adversary.NewRandomUnit(seed + int64(len(name))),
				Faults:  faults,
			}}
		}
		tQuarter, tNineTenths := n/4, 9*n/10
		// naive-mir re-runs the naive cell, delay seed included, through a
		// Byzantine-majority mirror fleet: 3 of 5 mirrors lie, their
		// replies fail verification and fall back to the source.
		mir := cell("naive", tNineTenths, naive.New, byz(tNineTenths, adversary.NewSilent))
		mir.name += "-mir"
		mir.spec.Mirrors = &source.MirrorPlan{Mirrors: 5, Byz: 3, Behavior: source.BehaviorMixed, LeafBits: 64, Seed: 9}
		cells = append(cells,
			cell("naive", tNineTenths, naive.New, byz(tNineTenths, adversary.NewSilent)),
			cell("crash1", 1, crash1.New, crash(1)),
			cell("crashk", tNineTenths, crashk.NewFast, crash(tNineTenths)),
			cell("committee", tQuarter, committee.New, byz(tQuarter, committee.NewLiar)),
			cell("twocycle", tQuarter, twocycle.New, byz(tQuarter, segproto.NewColludingLiar)),
			cell("multicycle", tQuarter, multicycle.New, byz(tQuarter, segproto.NewColludingLiar)),
			mir,
		)
	}
	return cells
}

// TestTable1Goldens pins the exact paper metrics of every Table-1 cell at
// both scales, seed 7. Regenerate with -update, like TestGoldens.
func TestTable1Goldens(t *testing.T) {
	got := make(map[string]table1Row)
	for _, c := range table1Cells(table1Seed) {
		res, err := des.New().Run(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s incorrect: %v", c.name, res.Failures)
		}
		got[c.name] = table1Row{Q: res.Q, AvgQ: res.AvgQ(), Msgs: res.Msgs, Events: res.Events, VTime: res.Time}
	}
	if *update {
		writeJSON(t, table1Path, got)
		return
	}
	data, err := os.ReadFile(table1Path)
	if err != nil {
		t.Fatalf("load Table-1 goldens (regenerate with -update): %v", err)
	}
	var pinned map[string]table1Row
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("parse %s: %v", table1Path, err)
	}
	for name, g := range got {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned values (regenerate with -update)", name)
		} else if g != want {
			t.Errorf("%s: Table-1 drift:\n got  %+v\n want %+v", name, g, want)
		}
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned Table-1 row %q has no cell", name)
		}
	}
}
