// Command drsim runs a single Download execution in the DR-model
// simulator and prints its complexity report.
//
// Examples:
//
//	drsim -list
//	drsim -protocol crashk -n 32 -t 24 -L 65536 -behavior crash-random
//	drsim -protocol committee -n 16 -t 7 -L 4096 -behavior liar -v
//	drsim -protocol twocycle -n 128 -t 32 -L 16384 -behavior equivocate -tcp
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/download"
	"repro/internal/harden"
	"repro/internal/netrt"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one download and returns the exit code: 0 when every
// honest peer output X, 1 when one did not, 2 on a usage or run error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list protocols and exit")
		protocol = fs.String("protocol", "crashk", "protocol to run")
		n        = fs.Int("n", 16, "number of peers")
		t        = fs.Int("t", 4, "fault bound t")
		l        = fs.Int("L", 4096, "input length in bits")
		b        = fs.Int("b", 0, "message size in bits (0: max(64, L/n))")
		seed     = fs.Int64("seed", 1, "simulation seed")
		faulty   = fs.Int("faulty", 0, "actually faulty peers (0: t when behavior set)")
		behavior = fs.String("behavior", "", "fault behavior: crash|crash-random|silent|spam|liar|equivocate")
		excess   = fs.Bool("allow-excess", false, "permit -faulty above -t (model a violated fault bound; pair with -harden)")
		hardened = fs.Bool("harden", false, "run under the hardening supervisor (detect violations, audit outputs, escalate toward naive)")
		deadline = fs.Float64("deadline", 0, "cut the run off after this many time units, seconds with -tcp (0: none; -tcp then stops at 30 s)")
		srcPlan  = fs.String("source-faults", "", `seeded source fault plan, e.g. "fail=0.25,outage=2..5,seed=7" (des and TCP runtimes)`)
		mirrors  = fs.String("mirrors", "", `untrusted mirror fleet plan, e.g. "mirrors=5,byz=3,behavior=mixed,seed=7" (all runtimes; Merkle-verified replies, authoritative fallback)`)
		tcpRT    = fs.Bool("tcp", false, "run over real TCP sockets (every behavior; faults within -t)")
		verbose  = fs.Bool("v", false, "print per-peer stats, and on a TCP time-out the goroutine stacks")
		traceOut = fs.String("tracejson", "", "write the run's event stream as JSONL to this file (/dev/stderr to watch it)")

		obsAddr = fs.String("obs", "", "serve observability endpoints (/metrics, /snapshot.json, /timeline.jsonl, /debug/vars, /debug/pprof) on this address, e.g. :9090")
		obsHold = fs.Duration("obs-linger", 0, "keep the -obs server alive this long after the run so endpoints can be scraped")
		metOut  = fs.String("metrics-out", "", "write a JSON metrics snapshot to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-12s %-14s %-11s %-22s %-20s %s\n",
			"PROTOCOL", "DETERMINISM", "FAULTS", "RESILIENCE", "QUERY", "SOURCE")
		for _, info := range download.Protocols() {
			fmt.Fprintf(stdout, "%-12s %-14s %-11s %-22s %-20s %s\n",
				info.Protocol, info.Determinism, info.FaultModel,
				info.Resilience, info.Query, info.Theorem)
		}
		return 0
	}

	opts := download.Options{
		Protocol: download.Protocol(*protocol),
		N:        *n, T: *t, L: *l, MsgBits: *b,
		Seed:              *seed,
		Faulty:            *faulty,
		Behavior:          download.FaultBehavior(*behavior),
		AllowExcessFaults: *excess,
		Deadline:          *deadline,
		SourceFaults:      *srcPlan,
		Mirrors:           *mirrors,
		TCP:               *tcpRT,
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "drsim: %v\n", err)
			return 2
		}
		defer f.Close()
		opts.TraceJSONL = f
	}
	var (
		reg *obs.Registry
		tl  *obs.Timeline
	)
	if *obsAddr != "" || *metOut != "" {
		reg = obs.New()
		tl = obs.NewTimeline()
		opts.Metrics, opts.Timeline = reg, tl
	}
	var srv *obs.Server
	if *obsAddr != "" {
		var err error
		srv, err = obs.Serve(*obsAddr, reg, tl)
		if err != nil {
			fmt.Fprintf(stderr, "drsim: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "drsim: observability on http://%s/\n", srv.Addr)
	}
	var (
		rep *download.Report
		err error
	)
	if *hardened {
		rep, err = download.RunHardened(opts, harden.Policy{AttemptDeadline: *deadline})
	} else {
		rep, err = download.Run(opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "drsim: %v\n", err)
		if terr := (*netrt.TimeoutError)(nil); *verbose && errors.As(err, &terr) {
			stderr.Write(terr.Stacks)
		}
		return 2
	}

	fmt.Fprintf(stdout, "protocol    %s  (n=%d t=%d L=%d seed=%d behavior=%q)\n",
		*protocol, *n, *t, *l, *seed, *behavior)
	fmt.Fprintf(stdout, "correct     %v\n", rep.Correct)
	fmt.Fprintf(stdout, "Q           %d bits/peer (max over honest; avg %.1f; naive would be %d)\n",
		rep.Q, rep.AvgQ, *l)
	fmt.Fprintf(stdout, "messages    %d (%d payload bits)\n", rep.Msgs, rep.MsgBits)
	if *tcpRT {
		fmt.Fprintf(stdout, "time        %.4f s (wall clock since the run started)\n", rep.Time)
	} else {
		fmt.Fprintf(stdout, "time        %.2f (virtual units; 1 = max network latency)\n", rep.Time)
	}
	if *mirrors != "" || rep.MirrorHits > 0 || rep.ProofFailures > 0 {
		fmt.Fprintf(stdout, "mirrors     %d verified hits, %d proof failures, %d fallback queries (only verified bits charge into Q)\n",
			rep.MirrorHits, rep.ProofFailures, rep.FallbackQueries)
	}
	if *srcPlan != "" || rep.SourceFailures > 0 {
		fmt.Fprintf(stdout, "source      %d failures, %d retries, %d breaker opens, %d deferred queries\n",
			rep.SourceFailures, rep.SourceRetries, rep.BreakerOpens, rep.DeferredQueries)
		fmt.Fprintf(stdout, "            degraded %.2f time units (worst peer); %d churn rejoins\n",
			rep.DegradedTime, rep.Rejoins)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "FAILURE     %s\n", f)
	}
	if h := rep.Hardening; h != nil {
		fmt.Fprintf(stdout, "hardening   detected=%v corrected=%v ladder=%v\n", h.Detected, h.Corrected, h.Ladder)
		fmt.Fprintf(stdout, "            audit %d bits (in Q), warm cache served %d bits free\n", h.AuditBits, h.WarmHitBits)
		for i, a := range h.Attempts {
			fmt.Fprintf(stdout, "attempt %d   %-10s violations=%d audited=%d peers\n", i, a.Protocol, len(a.Violations), a.AuditedPeers)
			for _, v := range a.Violations {
				fmt.Fprintf(stdout, "            ! %s\n", v)
			}
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "%-5s %-7s %-8s %-11s %-10s %s\n",
			"PEER", "HONEST", "CRASHED", "TERMINATED", "QUERYBITS", "MSGS")
		for _, p := range rep.PerPeer {
			fmt.Fprintf(stdout, "%-5d %-7v %-8v %-11v %-10d %d\n",
				p.ID, p.Honest, p.Crashed, p.Terminated, p.QueryBits, p.MsgsSent)
		}
	}
	if *metOut != "" {
		if err := writeMetricsSnapshot(*metOut, reg); err != nil {
			fmt.Fprintf(stderr, "drsim: %v\n", err)
			return 2
		}
	}
	if srv != nil && *obsHold > 0 {
		fmt.Fprintf(stderr, "drsim: lingering %v on http://%s/ (metrics frozen)\n", *obsHold, srv.Addr)
		time.Sleep(*obsHold)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// writeMetricsSnapshot dumps the registry as indented JSON.
func writeMetricsSnapshot(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
