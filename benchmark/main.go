// Command benchmark measures whole downloads end to end and layer by
// layer. It builds every input from -seed, drives the system through its
// public functions one op after another, checks every output, and prints
// each metric as "name value unit".
//
//	go run ./benchmark -seed 1 -out benchmark/out
//
// runs every workload untraced for the end-to-end metrics, then traced
// for the per-layer ones, and writes results.json and one
// trace-<workload>.jsonl per workload. With -workload and -trace 0 or 1
// it runs that one pass and ends with the one-line JSON result that
// BENCHMARK.json's driver reads. See README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// pinFile is expected.json: the exact (Q, Msgs, Events, Time) of the
// first pinOps ops of each des workload at one -seed.
type pinFile struct {
	Seed      int64            `json:"seed"`
	Workloads map[string][]pin `json:"workloads"`
}

// encode renders the file one pin per line, so a changed pin is a
// one-line diff.
func (pf *pinFile) encode() []byte {
	names := make([]string, 0, len(pf.Workloads))
	for name := range pf.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "{\"seed\": %d, \"workloads\": {\n", pf.Seed)
	for i, name := range names {
		fmt.Fprintf(&b, " %q: [\n", name)
		for j, p := range pf.Workloads[name] {
			line, _ := json.Marshal(p)
			fmt.Fprintf(&b, "  %s%s\n", line, comma(j, len(pf.Workloads[name])))
		}
		fmt.Fprintf(&b, " ]%s\n", comma(i, len(names)))
	}
	b.WriteString("}}\n")
	return []byte(b.String())
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

// pinOps is how many ops per des workload -update-pins records; a timed
// section longer than that leaves its later ops unpinned.
const pinOps = 96

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "derives every op seed, input array and fault-plan seed")
	seconds := fs.Float64("seconds", 12, "timed section per workload and pass; never changes a cell's size")
	trace := fs.String("trace", "both", "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), both")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for results.json, traces and scratch files")
	aa := fs.Bool("aa", false, "run the untraced set twice and compare the two against each metric's bound")
	update := fs.Bool("update-pins", false, "regenerate benchmark/expected.json at -seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	all := workloads()
	selected := all
	if *name != "" {
		selected = nil
		for _, w := range all {
			if w.name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var pf pinFile
	if err := json.Unmarshal(expectedJSON, &pf); err != nil {
		fmt.Fprintln(stderr, "benchmark: expected.json:", err)
		return 1
	}
	cfg := passConfig{seed: *seed, seconds: *seconds, outDir: *out}

	switch {
	case *update:
		return updatePins(all, cfg, stdout, stderr)
	case *aa:
		return runAA(selected, cfg, &pf, stdout, stderr)
	}

	var results []*passResult
	failed := 0
	for _, traced := range []bool{false, true} {
		if (traced && *trace == "0") || (!traced && *trace == "1") {
			continue
		}
		for _, w := range selected {
			cfg.pins = pinsFor(&pf, w, *seed)
			res, err := runPass(w, cfg, traced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printPass(stdout, res)
			results = append(results, res)
			failed += res.Failed
		}
	}
	if err := writeResults(filepath.Join(*out, "results.json"), cfg, results); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(results) == 1 {
		// The driver's contract: one workload, one pass, one last line.
		r := results[0]
		line, _ := json.Marshal(map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted,
			"failed": r.Failed, "metrics": r.Metrics})
		fmt.Fprintln(stdout, string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// pinsFor returns the workload's pins by op seed when the run is at the
// seed they were recorded at.
func pinsFor(pf *pinFile, w *workload, seed int64) map[int64]pin {
	if pf.Seed != seed || len(pf.Workloads[w.name]) == 0 {
		return nil
	}
	m := make(map[int64]pin)
	for _, p := range pf.Workloads[w.name] {
		m[p.Seed] = p
	}
	return m
}

// updatePins runs pinOps ops of every simulator workload and rewrites
// expected.json. Only des is pinned: sockets are schedule-variant.
func updatePins(all []*workload, cfg passConfig, stdout, stderr io.Writer) int {
	pf := pinFile{Seed: cfg.seed, Workloads: make(map[string][]pin)}
	for _, w := range all {
		if !w.layers["des"] {
			continue
		}
		p := &pass{w: w, cfg: cfg, scratch: cfg.outDir}
		for i := 0; i < pinOps; i++ {
			u, _ := p.unit("op", i, false, 0)
			if u.failed > 0 {
				fmt.Fprintf(stderr, "benchmark: %s op %d failed, not pinning: %v\n", w.name, i, u.failures)
				return 1
			}
			pf.Workloads[w.name] = append(pf.Workloads[w.name], pinOf(deriveSeed(cfg.seed, w.name, "op", i), &u.out))
		}
		fmt.Fprintf(stdout, "%s: pinned %d ops\n", w.name, pinOps)
	}
	if err := os.WriteFile(filepath.Join("benchmark", "expected.json"), pf.encode(), 0o644); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runAA runs the untraced set twice in one process and holds the two
// against each other: the same code must agree with itself within every
// metric's bound, or a later comparison against that bound means nothing.
func runAA(selected []*workload, cfg passConfig, pf *pinFile, stdout, stderr io.Writer) int {
	bad := 0
	var sets [2][]*passResult
	for s := range sets {
		for _, w := range selected {
			cfg.pins = pinsFor(pf, w, cfg.seed)
			res, err := runPass(w, cfg, false)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			sets[s] = append(sets[s], res)
			bad += res.Failed
		}
	}
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for i, w := range selected {
		a, b := sets[0][i], sets[1][i]
		for _, d := range endToEnd {
			gap := relGap(a.values[d.Name], b.values[d.Name])
			mark := ""
			if gap > d.Bound {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-28s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.name, d.Name,
				a.values[d.Name], b.values[d.Name], 100*gap, 100*d.Bound, mark)
		}
		fmt.Fprintf(stdout, "%-16s %-28s %14d %14d\n", w.name, "failed", a.Failed, b.Failed)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// relGap is the distance between two readings as a share of the first.
func relGap(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs((b - a) / a)
}

func printPass(w io.Writer, r *passResult) {
	pass, defs := "untraced", endToEnd
	if r.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (%s): %d units, %d samples, tail p%d, %.1f s timed, %d ops pinned\n",
		r.Workload, pass, r.Units, r.Samples, r.TailPercentile, r.TimedSeconds, r.PinnedOps)
	for _, d := range defs {
		fmt.Fprintf(w, "%s %.6g %s\n", d.Name, r.values[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "fail_ratio %.6g ratio (%d of %d)\n", r.FailRatio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", r.Workload, f)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "budget: layer count/op x cost = est ms/op (share of %.3f ms CPU/op)\n", r.values["harness.cpu_ms_per_op"])
		for _, b := range r.Budget {
			if b.EstMs > 0 {
				fmt.Fprintf(w, "budget: %-13s %12.1f x %12.1f ns = %9.3f ms (%5.1f%%)\n", b.Layer, b.Count, b.CostNs, b.EstMs, b.SharePct)
			}
		}
		fmt.Fprintf(w, "budget: %-13s %51.1f%%\n", "unexplained", r.values["harness.budget_unexplained_pct"])
	}
}

// writeResults records the run and the machine it ran on.
func writeResults(path string, cfg passConfig, results []*passResult) error {
	type workloadInfo struct {
		Name   string         `json:"name"`
		Why    string         `json:"why"`
		Params map[string]any `json:"params"`
		Layers []string       `json:"layers"`
	}
	var infos []workloadInfo
	for _, w := range workloads() {
		layers := make([]string, 0, len(w.layers))
		for l := range w.layers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		infos = append(infos, workloadInfo{w.name, w.why, w.params, layers})
	}
	doc := map[string]any{
		"schema": 1, "seed": cfg.seed, "seconds": cfg.seconds,
		"env": map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH, "git_rev": gitRev()},
		"workloads": infos, "end_to_end": endToEnd, "per_layer": perLayer, "passes": results,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitRev is the commit the binary was built from, or of the working
// directory; "unknown" in a checkout that is not a repository.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
