package storm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/download"
)

// The specs the chaos sweep built for `make chaos` (network chaos over
// drops × flaps) and `make source-chaos` (with a source fault plan) before
// Grid existed, one JSON spec per line in run order. Grid must keep
// building exactly these.
const (
	chaosGridJSON = `{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"net":{"drop":0.2,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":2,"partition":true}}
`
	sourceChaosGridJSON = `{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"naive","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"crashk","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":1,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
{"protocol":"committee","n":6,"t":0,"l":512,"msg_bits":128,"seed":2,"storm_seed":0,"source_faults":"fail=0.2,timeout=0.1,seed=3","net":{"drop":0.1,"dup":0.1,"reorder":0.05,"delay_ms":2,"flaps":0,"partition":true}}
`
)

// TestGridMatchesChaosSweep pins the grids behind `make chaos` and `make
// source-chaos` to the literal specs above, marshalled field for field.
func TestGridMatchesChaosSweep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		drops  []float64
		flaps  []int
		source string
		want   string
	}{
		{"chaos", []float64{0, 0.1, 0.2}, []int{0, 2}, "", chaosGridJSON},
		{"source-chaos", []float64{0, 0.1}, []int{0}, "fail=0.2,timeout=0.1,seed=3", sourceChaosGridJSON},
	} {
		var got strings.Builder
		for _, p := range []download.Protocol{download.Naive, download.CrashK, download.Committee} {
			for _, spec := range Grid(p, 6, 512, 128, tc.drops, tc.flaps, 2, tc.source) {
				b, err := json.Marshal(spec)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(append(b, '\n'))
			}
		}
		if got.String() != tc.want {
			t.Errorf("%s: grid specs differ from the pinned sweep:\n got %s\nwant %s", tc.name, got.String(), tc.want)
		}
	}
}

// TestGridBridgesSourcePlan: a grid cell run with -source-faults keeps
// its source plan on the des bridge, its time-valued fields scaled from
// seconds to steps, so a breached cell replays against a faulty source.
func TestGridBridgesSourcePlan(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{"fail=0.2,timeout=0.1,seed=3", "fail=0.2,timeout=0.1,seed=3"},
		{"fail=0.1,latency=0.02,outage=0.051..0.25,rate=640,seed=4", "fail=0.1,latency=2,outage=5..25,rate=7/640,seed=4"},
	} {
		for _, spec := range Grid(download.Naive, 6, 512, 128, []float64{0, 0.1}, []int{0}, 2, tc.plan) {
			r, err := DesReplay(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.SourcePlan != tc.want {
				t.Errorf("%s bridges with source plan %q, want %q", spec.Name(), r.SourcePlan, tc.want)
			}
		}
	}
}

// TestGridFindingsPerCell: two breached cells of one protocol leave two
// artifact pairs, not one pair the second overwrote.
func TestGridFindingsPerCell(t *testing.T) {
	dir := t.TempDir()
	vs := []Violation{{Invariant: "termination", Detail: "synthetic socket-only failure"}}
	for _, spec := range Grid(download.Naive, 4, 64, 16, []float64{0, 0.1}, []int{0}, 1, "") {
		if _, err := RecordFinding(spec, vs, dir, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, ext := range []string{".json", ".dsr"} {
		files, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Errorf("%d %s artifacts for two breached cells, want 2: %v", len(files), ext, files)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "storm-naive-d0.10-f0-seed1.dsr")); err != nil {
		t.Errorf("grid artifact not named by its cell: %v", err)
	}
}
