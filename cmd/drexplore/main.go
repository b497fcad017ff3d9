// Command drexplore runs the bounded-exhaustive schedule explorer: it
// enumerates every delivery order of a small configuration up to a chosen
// decision depth and reports failures/deadlocks with a replayable witness.
//
// Exit codes: 0 every schedule clean, 1 a schedule failed or deadlocked,
// 2 usage.
//
// Example:
//
//	drexplore -protocol crash1 -n 3 -L 12 -crash 0:6 -depth 6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/download"
	"repro/internal/explore"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run explores one configuration and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("drexplore", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		protocol = fs.String("protocol", "crash1", "protocol to explore")
		n        = fs.Int("n", 3, "peers (keep tiny: the tree is exponential)")
		tf       = fs.Int("t", 1, "fault bound")
		l        = fs.Int("L", 12, "input bits")
		seed     = fs.Int64("seed", 1, "input/coins seed")
		depth    = fs.Int("depth", 6, "explored decision depth")
		budget   = fs.Int("budget", 500000, "max executions")
		crash    = fs.String("crash", "", "crash points, e.g. 0:6,2:10 (peer:actions)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	factory, err := download.Protocol(*protocol).Factory()
	if err != nil {
		fmt.Fprintf(os.Stderr, "drexplore: %v\n", err)
		return 2
	}
	points := map[sim.PeerID]int{}
	if *crash != "" {
		for _, part := range strings.Split(*crash, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
			if len(kv) != 2 {
				fmt.Fprintf(os.Stderr, "drexplore: bad -crash entry %q\n", part)
				return 2
			}
			p, err1 := strconv.Atoi(kv[0])
			pt, err2 := strconv.Atoi(kv[1])
			if err1 != nil || err2 != nil {
				fmt.Fprintf(os.Stderr, "drexplore: bad -crash entry %q\n", part)
				return 2
			}
			points[sim.PeerID(p)] = pt
		}
	}

	rep, err := explore.Run(explore.Config{
		N: *n, T: *tf, L: *l, Seed: *seed,
		NewPeer:     factory,
		CrashPoints: points,
		MaxChoices:  *depth,
		Budget:      *budget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "drexplore: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s n=%d t=%d L=%d depth=%d crash=%v\n", *protocol, *n, *tf, *l, *depth, points)
	fmt.Fprintln(stdout, rep)
	if rep.FirstBad != nil {
		fmt.Fprintf(stdout, "first failing schedule prefix: %v\n", rep.FirstBad)
	}
	if !rep.Ok() {
		return 1
	}
	return 0
}
