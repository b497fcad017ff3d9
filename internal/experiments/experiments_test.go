package experiments_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestAllExperimentsQuick(t *testing.T) {
	cfg := experiments.Config{Seed: 7, Quick: true}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Errorf("table ID %q != %q", table.ID, e.ID)
			}
			if len(table.Columns) == 0 {
				t.Error("no columns")
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("row width %d != %d columns", len(row), len(table.Columns))
				}
			}
			var buf bytes.Buffer
			table.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("Fprint missing table ID")
			}
			var csv bytes.Buffer
			table.CSV(&csv)
			if lines := strings.Count(csv.String(), "\n"); lines != len(table.Rows)+1 {
				t.Errorf("CSV has %d lines, want %d", lines, len(table.Rows)+1)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := experiments.ByID("T1"); !ok {
		t.Error("T1 not found")
	}
	if _, ok := experiments.ByID("e5"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := experiments.ByID("nope"); ok {
		t.Error("bogus ID found")
	}
}

func TestExperimentShapes(t *testing.T) {
	// Spot-check the load-bearing shapes on the quick configuration.
	cfg := experiments.Config{Seed: 11, Quick: true}

	// Thm 2.13: Q = O(L/(n−t)) for every β < 1. The constant held here is
	// 2: no peer queries more than twice the survivors' balanced share.
	const e2Bound = 2.0
	t.Run("E2 flat in beta", func(t *testing.T) {
		table, err := run(t, "E2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range table.Rows {
			v, err := strconv.ParseFloat(row[5], 64) // Q·(n−t)/L
			if err != nil {
				t.Fatal(err)
			}
			if v > e2Bound {
				t.Errorf("beta=%s: Q·(n−t)/L = %v, above %v", row[0], v, e2Bound)
			}
		}
	})

	// Thm 3.4: Q = L(2t+1)/n exactly, at every β < 1/2.
	t.Run("E4 linear in beta", func(t *testing.T) {
		table, err := run(t, "E4", cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells := experiments.E4Cells(cfg)
		if len(table.Rows) != len(cells) {
			t.Fatalf("%d rows for %d cells", len(table.Rows), len(cells))
		}
		for i, row := range table.Rows {
			n, tf, q := atoi(t, row[1]), atoi(t, row[2]), atoi(t, row[3])
			if want := cells[i].Spec.Config.L * (2*tf + 1) / n; q != want {
				t.Errorf("beta=%s: Q = %d, want L(2t+1)/n = %d", row[0], q, want)
			}
		}
	})
}

func run(t *testing.T, id string, cfg experiments.Config) (*experiments.Table, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	return e.Run(cfg)
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
