// Command drconform is the cross-runtime conformance gate. Both modes
// run cases through one runner (conformance.RunCases) and print one
// pass/fail matrix, a row per (protocol, behavior) and a column per
// enabled runtime.
//
// Sweep mode (default) runs every protocol against every compatible
// fault behavior across several seeds at one (n, L). Sweep cases are
// unpinned: each cell must be correct and inside the protocol's Q/M
// complexity envelope (docs/SPEC.md); a correct-but-over-budget run
// fails the row and the exit code.
//
// Fixture mode (-fixtures) runs the committed golden corpus
// (internal/conformance/fixtures): every pinned case on every enabled
// runtime, diffed field-by-field against the recorded expectation, plus
// the wire-frame round-trip and .dsr replay integrity checks. This is
// the contract any new runtime must pass before it can land.
//
// The des column always runs; -tcp, -flaky-source, -mirrors and -harden
// each add one column, in either mode. A cell a runtime cannot
// serve (download.Run returns *download.UnsupportedError) prints "-".
//
// Examples:
//
//	drconform -n 16 -L 2048 -seeds 5
//	drconform -tcp -seeds 2
//	drconform -mirrors "mirrors=5,byz=3,behavior=mixed,seed=7"
//	drconform -fixtures -tcp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/conformance"
)

// main stops the sweep at a cell boundary on SIGINT/SIGTERM, and the
// partial matrix is still flushed (CI kills a timed-out job with SIGTERM;
// the evidence must survive). A second signal kills the process.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(os.Args[1:], os.Stdout, ctx.Done()))
}

// run executes the CLI and returns its exit code: 0 only when every
// cell-run passed — correctness, field-level fixture conformance, AND
// the Q/M envelopes. (A sweep that printed a failing row but exited 0
// would make the CI gate decorative; the regression test in main_test.go
// pins the nonzero exit.) An interrupted run flushes the partial matrix
// and exits 130, the shell convention for death-by-SIGINT.
func run(args []string, stdout io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("drconform", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 16, "peers (sweep mode)")
		l        = fs.Int("L", 2048, "input bits (sweep mode)")
		seeds    = fs.Int("seeds", 3, "seeds per cell (sweep mode)")
		tcpRT    = fs.Bool("tcp", false, "add the real-socket runtime's column")
		hardenRT = fs.Bool("harden", false, "add a column re-running each case on des under the hardening supervisor")
		srcCol   = fs.Bool("flaky-source", false, "add a SRC column re-running each case on des against a flaky source")
		srcSpec  = fs.String("source-faults", conformance.FlakyPlan, "source fault plan used by the -flaky-source column")
		mirrors  = fs.String("mirrors", "",
			"add a MIR column re-running each case on des through this untrusted mirror fleet plan (source.ParseMirrorPlan grammar)")
		fixtures = fs.Bool("fixtures", false, "run the committed golden fixture corpus instead of the sweep")
		fixDir   = fs.String("fixture-dir", conformance.DefaultDir, "fixture corpus directory (fixture mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := conformance.Config{
		Runtimes:   []conformance.Runtime{conformance.DES},
		SourcePlan: *srcSpec,
		Mirrors:    *mirrors,
		Interrupt:  interrupt,
	}
	for _, col := range []struct {
		on bool
		rt conformance.Runtime
	}{
		{*tcpRT, conformance.TCP},
		{*srcCol, conformance.SRC},
		{*mirrors != "", conformance.MIR},
		{*hardenRT, conformance.Harden},
	} {
		if col.on {
			cfg.Runtimes = append(cfg.Runtimes, col.rt)
		}
	}

	var (
		rep    *conformance.Report
		cases  int
		corpus *conformance.Corpus
	)
	if *fixtures {
		var err error
		if corpus, err = conformance.Load(*fixDir); err != nil {
			fmt.Fprintf(stdout, "drconform: %v\n", err)
			return 1
		}
		rep = conformance.RunFixtures(corpus, cfg)
		cases = len(corpus.Results.Cases)
	} else {
		sweep := conformance.SweepCases(*n, *l, *seeds)
		rep = conformance.RunCases(sweep, cfg)
		cases = len(sweep)
	}
	rep.WriteMatrix(stdout)
	switch {
	case rep.Interrupted:
		fmt.Fprintf(stdout, "\nINTERRUPTED: partial matrix (%d cell-runs failed so far)\n", rep.Failures())
		return 130
	case rep.Failed():
		fmt.Fprintf(stdout, "\nFAILED: %d cell-runs or corpus checks failed\n", rep.Failures())
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: %d cases × %d runtimes conform", cases, len(cfg.Runtimes))
	if corpus != nil {
		fmt.Fprintf(stdout, " (corpus v%d, %d frames, %d replays)",
			conformance.CorpusVersion, len(corpus.Frames.Frames), len(corpus.Replays.Replays))
	}
	fmt.Fprintln(stdout)
	return 0
}
