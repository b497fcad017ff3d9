package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netrt"
)

func TestTailRule(t *testing.T) {
	// The tail is the highest of p90/p75 with at least ten samples beyond.
	for _, tc := range []struct{ n, want int }{
		{24, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {100000, 90},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// 40 ascending samples: p75 is the 30th, leaving exactly ten beyond.
	s := make([]float64, 40)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
	if got := percentile(s, 50); got != 20 {
		t.Errorf("p50 of 1..40 = %v, want 20", got)
	}
	if got := percentile(s, 100); got != 40 {
		t.Errorf("p100 of 1..40 = %v, want 40", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	for _, w := range workloads() {
		if tailPercentile(w.minSamples) == 0 {
			t.Errorf("%s: %d guaranteed samples support no tail percentile", w.name, w.minSamples)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	// Stable across runs: the pins in expected.json depend on this value.
	if got, want := deriveSeed(1, "des-committee", "op", 0), int64(2006791118403530495); got != want {
		t.Errorf("deriveSeed(1, des-committee, op, 0) = %d, want %d", got, want)
	}
	seen := make(map[int64]string)
	for _, w := range workloads() {
		for _, purpose := range []string{"op", "warmup", "input"} {
			for i := 0; i < 50; i++ {
				s := deriveSeed(1, w.name, purpose, i)
				if s < 0 {
					t.Fatalf("negative seed %d", s)
				}
				key := w.name + "/" + purpose
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed %d derived for both %s and %s", s, prev, key)
				}
				seen[s] = key
			}
		}
	}
	if deriveSeed(1, "hub-load", "op", 0) == deriveSeed(2, "hub-load", "op", 0) {
		t.Error("op seed does not depend on -seed")
	}
	a, b := genInput(7, 4096), genInput(7, 4096)
	if !a.Equal(b) {
		t.Error("same seed, different input")
	}
	if a.Equal(genInput(8, 4096)) {
		t.Error("different seeds, same input")
	}
}

func TestFailureAccounting(t *testing.T) {
	input := []bool{true, false, true, true}
	good := outcome{Q: 4, Msgs: 9, Events: 12, Time: 1.5, Correct: true, Output: append([]bool(nil), input...)}
	p := pinOf(42, &good)
	if why := verifyDownload(&good, nil, input, &p, 42, 4); len(why) != 0 {
		t.Fatalf("clean op failed: %v", why)
	}

	count := func(o outcome, p *pin, wantQ int) int {
		w := workloads()[0]
		c := &opCtx{w: w}
		return finishDownload(c, o, verifyDownload(&o, nil, input, p, 42, wantQ), 13).failed
	}
	wrong := good
	wrong.Output = []bool{true, false, false, true}
	if n := count(wrong, &p, 4); n != 1 {
		t.Errorf("wrong output counted %d times, want 1", n)
	}
	short := good
	short.Output = input[:3]
	if n := count(short, nil, 0); n != 1 {
		t.Errorf("short output counted %d times, want 1", n)
	}
	drift := good
	drift.Msgs++
	if n := count(drift, &p, 4); n != 1 {
		t.Errorf("pin mismatch counted %d times, want 1", n)
	}
	// Wrong output, pin mismatch and Q != L at once are still one failed op.
	all := wrong
	all.Q, all.Correct = 3, false
	if n := count(all, &p, 4); n != 1 {
		t.Errorf("three reasons counted %d times, want 1", n)
	}
	if u := finishDownload(&opCtx{w: workloads()[0]}, wrong, []string{"x"}, 13); u.payloadBits != 0 {
		t.Errorf("failed op delivered %v payload bits, want 0", u.payloadBits)
	}

	if n, _ := verifyLoad(&netrt.LoadResult{Queries: 100, Replies: 100}, 0); n != 0 {
		t.Errorf("clean trial counted %d failures", n)
	}
	if n, _ := verifyLoad(&netrt.LoadResult{Queries: 100, Replies: 99, TimedOut: true}, 0); n != 1 {
		t.Errorf("one dropped query counted %d times, want 1", n)
	}
	if n, _ := verifyLoad(&netrt.LoadResult{Queries: 100, Replies: 100, TimedOut: true}, 0); n != 1 {
		t.Errorf("timed-out trial counted %d failures, want 1", n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, StartUs: 0, EndUs: 100},
		{Name: "download.Run", ID: 1, Parent: 0, StartUs: 10, EndUs: 60},
		{Name: "verify.output", ID: 2, Parent: 0, StartUs: 50, EndUs: 80}, // overlaps its sibling by 10
		{Name: "inner", ID: 3, Parent: 1, StartUs: 20, EndUs: 30},
		{Name: "late", ID: 4, Parent: 0, StartUs: 95, EndUs: 120}, // runs past its parent
	}
	fillSelfTimes(spans)
	for i, want := range []float64{25, 40, 30, 10, 25} {
		if math.Abs(spans[i].SelfUs-want) > 1e-9 {
			t.Errorf("%s self time = %v, want %v", spans[i].Name, spans[i].SelfUs, want)
		}
	}

	tr := newTracer()
	endOp := tr.begin("op", "w/1")
	tr.begin("download.Run", "w/1")()
	endOp()
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents = %d, %d; want 0, -1", tr.spans[1].Parent, tr.spans[0].Parent)
	}
	var off *tracer
	off.begin("op", "w/1")() // a nil tracer records nothing and does not panic
}

func TestPinFileRoundTrip(t *testing.T) {
	pf := pinFile{Seed: 1, Workloads: map[string][]pin{
		"b": {{Seed: 5, Q: 1, Msgs: 2, Events: 3, Time: 383.06526048568264}},
		"a": {{Seed: 6, Q: 4}, {Seed: 7, Q: 5}},
	}}
	var back pinFile
	if err := json.Unmarshal(pf.encode(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pf, back) {
		t.Errorf("round trip changed the pins:\n%+v\n%+v", pf, back)
	}
	// The committed pins cover both simulator workloads at the default seed.
	var committed pinFile
	if err := json.Unmarshal(expectedJSON, &committed); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if got := len(pinsFor(&committed, w, committed.Seed)); w.layers["des"] && got != pinOps {
			t.Errorf("%s: %d pins, want %d", w.name, got, pinOps)
		}
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json, which the driver
// reads, to the tables the harness reports from.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness")
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmallestRun drives the command itself on the cheapest workload and
// checks the one-line result, including that a corrupted pin fails it.
func TestSmallestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few seconds of downloads")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "des-committee", "-seconds", "0.01", "-trace", "0", "-out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != minDownloads+setupReps || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	for _, d := range endToEnd {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
		}
	}

	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	var pf pinFile
	if err := json.Unmarshal(saved, &pf); err != nil {
		t.Fatal(err)
	}
	pf.Workloads["des-committee"][0].Msgs++
	expectedJSON = pf.encode()
	out.Reset()
	if code := run([]string{"-workload", "des-committee", "-seconds", "0.01", "-trace", "0", "-out", t.TempDir()}, &out, &errb); code == 0 {
		t.Errorf("a corrupted pin did not fail the run:\n%s", out.String())
	}
}
