// Command drtrace summarizes a structured execution trace produced by
// `drsim -tracejson <file>` (or download.Options.TraceJSONL), on des or
// over sockets (-tcp): event counts by kind, message-type histogram with
// payload volumes, and a per-peer activity table.
//
// Example:
//
//	drsim -protocol crashk -n 16 -t 8 -L 8192 -behavior crash-random \
//	      -tracejson run.jsonl
//	drtrace run.jsonl
//
// Exit codes: 0 on a summary, 2 on a usage error or a trace that cannot be
// opened or parsed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	perPeer := fs.Bool("peers", false, "print the per-peer activity table")
	timeline := fs.Bool("timeline", false, "print per-peer ASCII event lanes")
	width := fs.Int("width", 72, "timeline width in columns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: drtrace [-peers] [-timeline] <trace.jsonl>")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "drtrace: %v\n", err)
		return 2
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		fmt.Fprintf(stderr, "drtrace: %v\n", err)
		return 2
	}
	s := trace.Analyze(events)
	s.Fprint(stdout)

	if *timeline {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Lanes(events, *width))
	}

	if *perPeer {
		ids := make([]sim.PeerID, 0, len(s.PerPeer))
		for id := range s.PerPeer {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(stdout, "\n%-5s %-7s %-9s %-8s %-10s %-8s %s\n",
			"PEER", "SENDS", "DELIVERS", "QUERIES", "QUERYBITS", "CRASHED", "TERMINATED@")
		for _, id := range ids {
			ps := s.PerPeer[id]
			term := "-"
			if ps.Terminated {
				term = fmt.Sprintf("%.2f", ps.TerminatedAt)
			}
			fmt.Fprintf(stdout, "%-5d %-7d %-9d %-8d %-10d %-8v %s\n",
				id, ps.Sends, ps.Delivers, ps.Queries, ps.QueryBits, ps.Crashed, term)
		}
	}
	return 0
}
