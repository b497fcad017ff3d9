package regression

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/experiments"
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

// TestTable1Goldens pins the exact paper metrics of every cell of
// experiments.Table1, keyed "<scale>/<cell>", at the quick (n = 128,
// L = 2^12) and the paper's (n = 256, L = 2^14) scale, seed 7.
// Regenerate with -update, like TestGoldens.
func TestTable1Goldens(t *testing.T) {
	got := make(map[string]table1Row)
	for _, scale := range []struct {
		name  string
		quick bool
	}{{"quick", true}, {"full", false}} {
		for _, c := range experiments.T1Cells(experiments.Config{Seed: table1Seed, Quick: scale.quick}) {
			res, err := c.Run()
			if err != nil {
				t.Fatalf("%s: %v", scale.name, err)
			}
			got[scale.name+"/"+c.Name] = table1Row{Q: res.Q, AvgQ: res.AvgQ(), Msgs: res.Msgs, Events: res.Events, VTime: res.Time}
		}
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
