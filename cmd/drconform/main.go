// Command drconform is the cross-runtime conformance gate.
//
// Sweep mode (default) runs the full grid: every protocol against every
// compatible fault behavior across several seeds, printing a pass/fail
// matrix with one column per enabled runtime. Every cell is additionally
// checked against the protocol's Q/M complexity envelope (docs/SPEC.md);
// a correct-but-over-budget run fails the row and the exit code.
//
// Fixture mode (-fixtures) runs the committed golden corpus
// (internal/conformance/fixtures): every pinned case on every enabled
// runtime, diffed field-by-field against the recorded expectation, plus
// the wire-frame round-trip and .dsr replay integrity checks. This is
// the contract any new runtime must pass before it can land.
//
// Examples:
//
//	drconform -n 16 -L 2048 -seeds 5
//	drconform -live -tcp -seeds 2
//	drconform -mirrors "mirrors=5,byz=3,behavior=mixed,seed=7"
//	drconform -fixtures -tcp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/conformance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, notifyInterrupt()))
}

// notifyInterrupt converts SIGINT/SIGTERM into a closed channel so the
// sweep can stop at a cell boundary and still flush its partial matrix
// (CI kills a timed-out job with SIGTERM; the evidence must survive).
func notifyInterrupt() <-chan struct{} {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-sig
		signal.Stop(sig)
		close(done)
	}()
	return done
}

// run executes the CLI and returns its exit code: 0 only when every
// cell-run passed — correctness, field-level fixture conformance, AND
// the Q/M envelopes. (A sweep that printed a failing row but exited 0
// would make the CI gate decorative; the regression test in main_test.go
// pins the nonzero exit.) An interrupted sweep flushes the partial
// matrix and exits 130, the shell convention for death-by-SIGINT.
func run(args []string, stdout io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("drconform", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 16, "peers (sweep mode)")
		l        = fs.Int("L", 2048, "input bits (sweep mode)")
		seeds    = fs.Int("seeds", 3, "seeds per cell (sweep mode)")
		liveRT   = fs.Bool("live", false, "also run the concurrent runtime")
		tcpRT    = fs.Bool("tcp", false, "also run the real-socket runtime")
		hardenRT = fs.Bool("harden", false, "add a column re-running each des cell under the hardening supervisor")
		srcCol   = fs.Bool("flaky-source", false, "add a SRC column re-running each des cell against a flaky source")
		srcSpec  = fs.String("source-faults", "fail=0.2,timeout=0.1,outage=1..3,seed=11",
			"source fault plan used by the -flaky-source column")
		mirrors = fs.String("mirrors", "",
			"add a MIR column re-running each des cell through this untrusted mirror fleet plan (source.ParseMirrorPlan grammar)")
		fixtures = fs.Bool("fixtures", false, "run the committed golden fixture corpus instead of the sweep grid")
		fixDir   = fs.String("fixture-dir", conformance.DefaultDir, "fixture corpus directory (fixture mode)")
		liveOff  = fs.Bool("no-live", false, "drop the live column from fixture mode (it is on by default there)")
		scale    = fs.Duration("live-scale", 500*time.Microsecond, "live runtime time scale in fixture mode")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fixtures {
		return runFixtures(stdout, *fixDir, *tcpRT, !*liveOff, *scale)
	}

	rep := conformance.RunGrid(conformance.GridConfig{
		N: *n, L: *l, Seeds: *seeds,
		Live: *liveRT, TCP: *tcpRT, Harden: *hardenRT,
		FlakySource: *srcCol, SourcePlan: *srcSpec,
		Mirrors:   *mirrors,
		Interrupt: interrupt,
	})
	rep.Write(stdout)
	if rep.Interrupted {
		return 130
	}
	if rep.Failures > 0 {
		return 1
	}
	return 0
}

func runFixtures(stdout io.Writer, dir string, tcp, live bool, scale time.Duration) int {
	corpus, err := conformance.Load(dir)
	if err != nil {
		fmt.Fprintf(stdout, "drconform: %v\n", err)
		return 1
	}
	runtimes := []conformance.Runtime{conformance.DES}
	if live {
		runtimes = append(runtimes, conformance.Live)
	}
	if tcp {
		runtimes = append(runtimes, conformance.TCP)
	}
	rep := conformance.RunFixtures(corpus, conformance.Config{
		Runtimes:  runtimes,
		LiveScale: scale,
	})
	rep.WriteMatrix(stdout)
	if rep.Failed() {
		fmt.Fprintf(stdout, "\nFAILED: fixture conformance\n")
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: %d cases × %d runtimes conform (corpus v%d, %d frames, %d replays)\n",
		len(corpus.Results.Cases), len(runtimes), conformance.CorpusVersion,
		len(corpus.Frames.Frames), len(corpus.Replays.Replays))
	return 0
}
