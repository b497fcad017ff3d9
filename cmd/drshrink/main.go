// Command drshrink is the CLI surface of the deterministic-simulation
// test harness (internal/dst): record executions as replay files, explore
// every schedule of a small configuration up to a decision depth, replay
// and verify them, shrink failures to minimal counterexamples, and run
// the Byzantine strategy search.
//
// Subcommands:
//
//	drshrink record  -protocol crash1 -n 4 -t 1 -L 64 -seed 7 -sched 3 -o run.dsr
//	drshrink explore -protocol crash1 -n 3 -L 12 -crash 0:6 -depth 6 -o bad.dsr
//	drshrink replay  run.dsr                 # re-execute, print the outcome
//	drshrink verify  run.dsr [more.dsr ...]  # check expectation + event hash
//	drshrink shrink  run.dsr -o min.dsr      # delta-debug to a minimal failure
//	drshrink search  -protocol committee -n 4 -t 1 -L 16 -budget 30s -out-dir findings/
//	drshrink trace   run.dsr                 # emit the drtrace JSONL trace
//	drshrink list                            # registered protocols
//
// Every violation drshrink reports comes with a .dsr file that reproduces
// it byte-deterministically; `drshrink verify` on a checked-in replay is
// exactly what the regression suite runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/dst"
	"repro/internal/protocols"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: drshrink <record|explore|replay|verify|shrink|search|trace|list> [flags]")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "record":
		return cmdRecord(args[1:])
	case "explore":
		return cmdExplore(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "shrink":
		return cmdShrink(args[1:])
	case "search":
		return cmdSearch(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "list":
		return cmdList(os.Stdout)
	case "-h", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "drshrink: unknown subcommand %q\n", args[0])
		return usage()
	}
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "drshrink: %v\n", err)
	return 1
}

func cmdList(w io.Writer) int {
	for _, name := range protocols.Names() {
		p, _ := protocols.Lookup(name)
		tag := ""
		if p.TestHook {
			tag = " [test hook]"
		} else if p.Randomized {
			tag = " [randomized]"
		}
		fmt.Fprintf(w, "%-18s %s%s\n", p.Name, p.Doc, tag)
	}
	return 0
}

// modelFlags registers the shared model-parameter flags on fs.
func modelFlags(fs *flag.FlagSet) (proto *string, n, t, l, b *int, seed *int64) {
	proto = fs.String("protocol", "crash1", "protocol registry name (see `drshrink list`)")
	n = fs.Int("n", 4, "number of peers")
	t = fs.Int("t", 1, "fault budget t")
	l = fs.Int("L", 64, "input length in bits")
	b = fs.Int("b", 64, "message size b in bits")
	seed = fs.Int64("seed", 1, "input/protocol seed")
	return
}

func cmdRecord(args []string) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	proto, n, t, l, b, seed := modelFlags(fs)
	sched := fs.Int64("sched", 1, "schedule seed for the recorded random schedule")
	faults := faultFlags(fs)
	out := fs.String("o", "", "output replay file (default: stdout)")
	fs.Parse(args)

	r := &dst.Replay{
		Version: dst.Version, Protocol: *proto,
		N: *n, T: *t, L: *l, MsgBits: *b, Seed: *seed,
	}
	if err := faults(r); err != nil {
		return fail(err)
	}
	rec, o, err := dst.Record(r, *sched)
	if err != nil {
		return fail(err)
	}
	if o.Result.Correct {
		rec.Expect = dst.ExpectCorrect
	} else {
		rec.Expect = dst.ExpectViolation
	}
	printOutcome(rec.Protocol, o)
	return writeReplay(rec, *out)
}

// cmdExplore enumerates every schedule of one configuration up to a
// decision depth (dst.Explore). Exit codes: 0 every schedule clean, 1 a
// schedule failed or deadlocked (its witness goes to -o), 2 usage.
func cmdExplore(args []string) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	proto, n, t, l, b, seed := modelFlags(fs)
	faults := faultFlags(fs)
	depth := fs.Int("depth", 6, "explored decision depth (the tree is exponential in it)")
	budget := fs.Int("budget", 500000, "max executions")
	out := fs.String("o", "", "write the first failing schedule here as a replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := &dst.Replay{
		Version: dst.Version, Protocol: *proto,
		N: *n, T: *t, L: *l, MsgBits: *b, Seed: *seed,
	}
	if err := faults(r); err != nil {
		fmt.Fprintf(os.Stderr, "drshrink: %v\n", err)
		return 2
	}
	rep, err := dst.Explore(r, *depth, *budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drshrink: %v\n", err)
		return 2
	}
	var crash []string
	for _, cp := range r.CrashPoints {
		crash = append(crash, fmt.Sprintf("%d:%d", cp.Peer, cp.Point))
	}
	fmt.Printf("%s n=%d t=%d L=%d depth=%d crash=%s\n", r.Protocol, r.N, r.T, r.L, *depth, strings.Join(crash, ","))
	fmt.Println(rep)
	if rep.Ok() {
		return 0
	}
	fmt.Printf("first failing schedule: %v (expect %s)\n", rep.Witness.Choices, rep.Witness.Expect)
	if *out != "" {
		writeReplay(rep.Witness, *out)
	}
	return 1
}

func cmdReplay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: drshrink replay <run.dsr>")
		return 2
	}
	r, err := dst.Load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	o, err := dst.Run(r)
	if err != nil {
		return fail(err)
	}
	printOutcome(r.Protocol, o)
	if o.Violation() {
		return 1
	}
	return 0
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: drshrink verify <run.dsr> [more.dsr ...]")
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		r, err := dst.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", path, err)
			bad++
			continue
		}
		if _, err := dst.Verify(r); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("ok   %s (expect %s, %d choices)\n", path, expectLabel(r), len(r.Choices))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func cmdShrink(args []string) int {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	out := fs.String("o", "", "output replay file (default: overwrite input)")
	traceOut := fs.String("trace", "", "also write the minimized run's JSONL trace here")
	maxRuns := fs.Int("max-runs", 0, "cap on candidate executions (0 = default)")
	verbose := fs.Bool("v", false, "log every accepted shrink step")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: drshrink shrink [-o min.dsr] [-trace min.jsonl] <run.dsr>")
		return 2
	}
	r, err := dst.Load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	opts := dst.ShrinkOptions{MaxRuns: *maxRuns}
	if *verbose {
		opts.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	min, rep, err := dst.Shrink(r, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("shrink: %d -> %d choices in %d runs (n=%d t=%d L=%d)\n",
		rep.InitialChoices, rep.FinalChoices, rep.Runs, min.N, min.T, min.L)
	dest := *out
	if dest == "" {
		dest = fs.Arg(0)
	}
	if *traceOut != "" {
		if err := writeTraceFile(min, *traceOut); err != nil {
			return fail(err)
		}
	}
	return writeReplay(min, dest)
}

func cmdTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "output JSONL file (default: stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: drshrink trace [-o run.jsonl] <run.dsr>")
		return 2
	}
	r, err := dst.Load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeTraceFile(r, *out); err != nil {
			return fail(err)
		}
		return 0
	}
	if _, err := dst.WriteTrace(r, os.Stdout); err != nil {
		return fail(err)
	}
	return 0
}

func cmdSearch(args []string) int {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	proto, n, t, l, b, seed := modelFlags(fs)
	strategies := fs.Int("strategies", 32, "strategy programs to try")
	schedules := fs.Int("schedules", 8, "random schedules per strategy and faulty set")
	budget := fs.Duration("budget", 0, "wall-clock time box (0 = none)")
	maxFindings := fs.Int("max-findings", 0, "stop after this many findings (0 = all)")
	outDir := fs.String("out-dir", "", "write one .dsr (and .jsonl trace) per finding here")
	noShrink := fs.Bool("no-shrink", false, "skip minimizing findings")
	hardenRerun := fs.Bool("harden", false,
		"re-run every finding under the hardening supervisor; findings it corrects pass, ones it misses fail the command")
	expectFinding := fs.Bool("expect-finding", false,
		"positive control: fail if the search finds nothing (use against *-weak protocols)")
	srcPlan := fs.String("source-faults", "",
		`layer a source fault plan on every searched run, e.g. "fail=0.2,outage=1..3,seed=6"`)
	churnSpec := fs.String("churn", "",
		"comma-separated crash-rejoin churn peers as peer:point[:rejoin(0|1)], e.g. 3:3:1")
	fs.Parse(args)

	churn, err := parseChurn(*churnSpec)
	if err != nil {
		return fail(err)
	}
	opts := dst.SearchOptions{
		Protocol: *proto,
		N:        *n, T: *t, L: *l, MsgBits: *b,
		Seed:       *seed,
		Strategies: *strategies, Schedules: *schedules,
		MaxFindings: *maxFindings,
		Shrink:      !*noShrink,
		SourcePlan:  *srcPlan,
		Churn:       churn,
		Log:         func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	if *budget > 0 {
		opts.Deadline = time.Now().Add(*budget)
	}
	rep, err := dst.Search(opts)
	if err != nil {
		return fail(err)
	}
	status := ""
	if rep.TimedOut {
		status = " (time box hit)"
	}
	fmt.Printf("search: %s: %d runs, %d findings in %s%s\n",
		rep.Protocol, rep.Runs, len(rep.Findings), rep.Elapsed.Round(time.Millisecond), status)
	uncorrected := 0
	for i, f := range rep.Findings {
		fmt.Printf("finding %d: %s -> %v\n", i, f.Strategy, f.Failures)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fail(err)
			}
			base := filepath.Join(*outDir, fmt.Sprintf("%s-finding-%02d", rep.Protocol, i))
			if err := f.Replay.Save(base + ".dsr"); err != nil {
				return fail(err)
			}
			if err := writeTraceFile(f.Replay, base+".jsonl"); err != nil {
				return fail(err)
			}
			fmt.Printf("  wrote %s.dsr and %s.jsonl\n", base, base)
		}
		if *hardenRerun {
			h, err := dst.CheckHardened(f.Replay, nil)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("  hardened: detected=%v corrected=%v final-correct=%v ladder=%v Q=%d\n",
				h.Detected, h.Corrected, h.Result.Correct, h.Escalations(), h.Result.Q)
			if !h.Result.Correct {
				uncorrected++
			}
		}
	}
	if *expectFinding && len(rep.Findings) == 0 {
		fmt.Fprintln(os.Stderr, "drshrink: search found nothing but -expect-finding was set (positive control failed)")
		return 1
	}
	if *hardenRerun {
		if uncorrected > 0 {
			fmt.Fprintf(os.Stderr, "drshrink: hardening failed to correct %d of %d findings\n", uncorrected, len(rep.Findings))
			return 1
		}
		return 0
	}
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

// faultFlags registers the fault-pattern flags on fs; the returned func
// applies them to a replay.
func faultFlags(fs *flag.FlagSet) func(*dst.Replay) error {
	crash := fs.String("crash", "", "crash spec `peer:point[,peer:point...]` (fault model: crash)")
	program := fs.String("byz", "", "Byzantine strategy program, e.g. `lie,equivocate` (fault model: byzantine)")
	byzSeed := fs.Int64("byzseed", 1, "strategy coin seed (with -byz)")
	faulty := fs.String("faulty", "", "comma-separated faulty peer ids (default 0..t-1 when a fault model is set)")
	return func(r *dst.Replay) error { return applyFaults(r, *crash, *program, *byzSeed, *faulty) }
}

func applyFaults(r *dst.Replay, crash, program string, byzSeed int64, faulty string) error {
	if crash != "" && program != "" {
		return fmt.Errorf("-crash and -byz are mutually exclusive")
	}
	if crash == "" && program == "" {
		if faulty != "" {
			return fmt.Errorf("-faulty requires -crash or -byz")
		}
		return nil
	}
	ids, err := parseFaulty(faulty, r.T)
	if err != nil {
		return err
	}
	r.Faulty = ids
	if crash != "" {
		r.Fault = dst.FaultCrash
		pts, err := parseCrash(crash)
		if err != nil {
			return err
		}
		r.CrashPoints = pts
		return nil
	}
	ops, err := dst.ParseOps(program)
	if err != nil {
		return err
	}
	r.Fault = dst.FaultByzantine
	r.Strategy = &dst.Strategy{Seed: byzSeed, Ops: ops}
	return nil
}

func parseFaulty(s string, t int) ([]int, error) {
	if s == "" {
		ids := make([]int, t)
		for i := range ids {
			ids[i] = i
		}
		return ids, nil
	}
	var ids []int
	for _, part := range splitComma(s) {
		var id int
		if _, err := fmt.Sscanf(part, "%d", &id); err != nil {
			return nil, fmt.Errorf("bad faulty id %q", part)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func parseCrash(s string) ([]dst.CrashPoint, error) {
	var pts []dst.CrashPoint
	for _, part := range splitComma(s) {
		var peer, point int
		if _, err := fmt.Sscanf(part, "%d:%d", &peer, &point); err != nil {
			return nil, fmt.Errorf("bad crash spec %q (want peer:point)", part)
		}
		pts = append(pts, dst.CrashPoint{Peer: peer, Point: point})
	}
	return pts, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func expectLabel(r *dst.Replay) string {
	if r.Expect == "" {
		return dst.ExpectViolation
	}
	return r.Expect
}

func printOutcome(proto string, o *dst.Outcome) {
	verdict := "CORRECT"
	switch {
	case o.Result.Deadlocked:
		verdict = "DEADLOCK"
	case o.Result.EventCapHit:
		verdict = "EVENT CAP"
	case !o.Result.Correct:
		verdict = "VIOLATION"
	}
	fmt.Printf("%s: %s  Q=%d msgs=%d bits=%d events=%d hash=%s\n",
		proto, verdict, o.Result.Q, o.Result.Msgs, o.Result.MsgBits, o.Steps,
		dst.HashString(o.EventHash))
	for _, f := range o.Result.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
}

func writeReplay(r *dst.Replay, path string) int {
	if path == "" {
		b, err := r.Marshal()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	}
	if err := r.Save(path); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

func writeTraceFile(r *dst.Replay, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := dst.WriteTrace(r, f); err != nil {
		return err
	}
	return f.Close()
}

// parseChurn parses peer:point[:rejoin] specs, comma-separated.
func parseChurn(s string) ([]dst.ChurnPoint, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []dst.ChurnPoint
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("drshrink: churn spec %q: want peer:point[:rejoin]", part)
		}
		cp := dst.ChurnPoint{Rejoin: true}
		var err error
		if cp.Peer, err = strconv.Atoi(fields[0]); err != nil {
			return nil, fmt.Errorf("drshrink: churn spec %q: bad peer: %v", part, err)
		}
		if cp.Point, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("drshrink: churn spec %q: bad point: %v", part, err)
		}
		if len(fields) == 3 {
			r, err := strconv.Atoi(fields[2])
			if err != nil || (r != 0 && r != 1) {
				return nil, fmt.Errorf("drshrink: churn spec %q: rejoin must be 0 or 1", part)
			}
			cp.Rejoin = r == 1
		}
		out = append(out, cp)
	}
	return out, nil
}
