// Command drstorm runs seeded composed-fault storms on the real-socket
// runtime and gates on the model's invariants. Each storm layers every
// fault plane the repo implements onto one execution — network chaos,
// a flaky source with an outage window, a Byzantine-majority mirror
// fleet, crash-recovery churn, and a hub listener outage — all derived
// from a single storm seed (see internal/storm). A failing storm is
// written to the artifact directory as its exact spec (JSON) plus a
// deterministic-engine .dsr replay, shrunk when des reproduces the
// violation.
//
// Exit codes: 0 every storm survived, 1 operational error (artifact
// write failed), 2 usage, 3 at least one invariant breach (the CI gate),
// 130 interrupted — partial matrix flushed first.
//
// Example:
//
//	drstorm -storms 3
//	drstorm -protocols naive,committee -budget 10m -out storm-findings
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/download"
	"repro/internal/conformance"
	"repro/internal/obs"
	"repro/internal/storm"
)

// main stops the soak at a storm boundary on SIGINT/SIGTERM, and the
// partial matrix is still flushed (CI kills a timed-out job with SIGTERM;
// the evidence must survive). A second signal kills the process.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(os.Args[1:], os.Stdout, ctx.Done()))
}

// planes renders a storm's composition in one line for run logs.
func planes(spec storm.Spec) string {
	var parts []string
	if len(spec.Churn) > 0 {
		parts = append(parts, fmt.Sprintf("churn=%d(rejoin %d)", len(spec.Churn), spec.Rejoins()))
	}
	if len(spec.Absent) > 0 {
		parts = append(parts, fmt.Sprintf("absent=%d", len(spec.Absent)))
	}
	parts = append(parts, fmt.Sprintf("src=%q", spec.SourceFaults))
	if spec.Mirrors != "" {
		parts = append(parts, "mirrors")
	}
	parts = append(parts, fmt.Sprintf("net(drop=%.2f,flaps=%d,part=%v)",
		spec.Net.Drop, spec.Net.Flaps, spec.Net.Partition))
	if o := spec.Net.Outage; o != nil {
		parts = append(parts, fmt.Sprintf("outage(at=%dms,down=%dms)", o.AfterMs, o.DownMs))
	}
	return strings.Join(parts, " ")
}

// run executes the storm matrix and returns the exit code.
func run(args []string, stdout io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("drstorm", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		protoList = fs.String("protocols", "all", `comma-separated protocols to storm, or "all"`)
		n         = fs.Int("n", 6, "peers")
		tFlag     = fs.Int("t", 0, "fault bound (0 = per-protocol conformance bound)")
		l         = fs.Int("L", 512, "input bits")
		b         = fs.Int("b", 128, "message size parameter")
		storms    = fs.Int("storms", 3, "storm seeds per protocol (fixed matrix; ignored with -budget)")
		baseSeed  = fs.Int64("seed", 1, "base storm seed (round k uses seed+k)")
		budget    = fs.Duration("budget", 0, "wall-clock soak budget: keep cycling storm rounds until it is spent (0 = fixed -storms matrix)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-storm timeout")
		outDir    = fs.String("out", "storm-findings", "artifact dir for failing storms (spec JSON + .dsr replay)")
		shrink    = fs.Bool("shrink", true, "minimize des-reproduced findings with the dst shrinker")
		verbose   = fs.Bool("v", false, "print every storm")
		obsAddr   = fs.String("obs", "", "serve observability endpoints on this address for the whole soak")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	infoByName := make(map[string]download.Info)
	var names []string
	for _, info := range download.Protocols() {
		infoByName[string(info.Protocol)] = info
		names = append(names, string(info.Protocol))
	}
	protos := names
	if *protoList != "all" {
		protos = nil
		for _, p := range strings.Split(*protoList, ",") {
			p = strings.TrimSpace(p)
			if _, ok := infoByName[p]; !ok {
				fmt.Fprintf(os.Stderr, "drstorm: unknown protocol %q (have %s)\n", p, strings.Join(names, ", "))
				return 2
			}
			protos = append(protos, p)
		}
	}

	var (
		reg      *obs.Registry
		timeline *obs.Timeline
	)
	if *obsAddr != "" {
		reg = obs.New()
		timeline = obs.NewTimeline()
		srv, err := obs.Serve(*obsAddr, reg, timeline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drstorm: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "drstorm: observability on http://%s/\n", srv.Addr)
	}

	tallies := make(map[string]*storm.Tally)
	for _, p := range protos {
		tallies[p] = &storm.Tally{}
	}
	var (
		breaches    int
		opFailed    bool
		interrupted bool
	)
	check := func() bool {
		select {
		case <-interrupt:
			interrupted = true
			return true
		default:
			return false
		}
	}

	start := time.Now()
	for round := 0; !interrupted; round++ {
		if *budget > 0 {
			if round > 0 && time.Since(start) >= *budget {
				break
			}
		} else if round >= *storms {
			break
		}
		stormSeed := *baseSeed + int64(round)
		for _, p := range protos {
			if check() {
				break
			}
			info := infoByName[p]
			t := *tFlag
			if t == 0 {
				t = conformance.FaultBound(info, *n)
			}
			spec := storm.Generate(info.Protocol, *n, t, *l, *b, stormSeed)
			res, err := storm.Run(spec, storm.RunOptions{
				Timeout: *timeout, Metrics: reg, Timeline: timeline,
			})
			vs := storm.Check(spec, res, err)
			tallies[p].Add(res, vs)
			if len(vs) == 0 {
				if *verbose {
					fmt.Fprintf(stdout, "  %-11s s=%-4d ok    %s\n", p, stormSeed, planes(spec))
				}
				continue
			}
			breaches++
			fmt.Fprintf(stdout, "  %-11s s=%-4d BREACH %s\n", p, stormSeed, planes(spec))
			for _, v := range vs {
				fmt.Fprintf(stdout, "    ! %s\n", v)
			}
			f, rerr := storm.RecordFinding(spec, vs, *outDir, *shrink, err)
			switch {
			case rerr != nil:
				opFailed = true
				fmt.Fprintf(os.Stderr, "drstorm: record finding: %v\n", rerr)
			case f.DesReproduced:
				fmt.Fprintf(stdout, "    artifact: %s — des-reproduced (shrunk replay)\n", f.ReplayFile)
			default:
				fmt.Fprintf(stdout, "    artifact: %s — socket-only (des control pinned)\n", f.ReplayFile)
			}
		}
	}

	fmt.Fprintf(stdout, "\nstorm matrix (survived/storms; n=%d L=%d b=%d, every plane composed per seed):\n\n", *n, *l, *b)
	fmt.Fprintf(stdout, "%-12s %-10s %-8s %-12s %-8s %-10s\n",
		"PROTOCOL", "SURVIVED", "REJOINS", "CKPT(S/R)", "RETRIES", "RECONNECTS")
	for _, p := range protos {
		tl := tallies[p]
		if tl.Runs == 0 {
			continue // never started before the interrupt
		}
		fmt.Fprintf(stdout, "%-12s %-10s %-8d %-12s %-8d %-10d\n",
			p, fmt.Sprintf("%d/%d", tl.Survived, tl.Runs), tl.Rejoins,
			fmt.Sprintf("%d/%d", tl.CheckpointSaves, tl.CheckpointRestores),
			tl.QueryRetries, tl.Reconnects)
	}
	fmt.Fprintf(stdout, "\nsource/mirror work (totals): ")
	var sf, sr, pf, fq int
	for _, tl := range tallies {
		sf += tl.SourceFailures
		sr += tl.SourceRetries
		pf += tl.ProofFailures
		fq += tl.FallbackQueries
	}
	fmt.Fprintf(stdout, "src-failures=%d src-retries=%d proof-failures=%d fallback-queries=%d\n", sf, sr, pf, fq)

	switch {
	case interrupted:
		fmt.Fprintf(stdout, "\nINTERRUPTED: partial matrix flushed (%d breaches so far)\n", breaches)
		return 130
	case breaches > 0:
		fmt.Fprintf(stdout, "\nBREACHED: %d storms violated invariants (artifacts in %s)\n", breaches, *outDir)
		return 3
	case opFailed:
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: all storms survived\n")
	return 0
}
