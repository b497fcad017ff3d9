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
// With -drops, -flaps or -source-faults set, drstorm sweeps a chaos grid
// instead (storm.Grid): every protocol × drop rate × flap count cell of
// network chaos — duplication, jitter with reordering and, when n ≥ 4, a
// healed partition — optionally behind a flaky source, -storms seeds per
// cell, and prints a survival matrix with one pass/seeds entry per cell.
// Grid cells are held to the same invariants and leave the same
// artifacts, named by their cell.
//
// Exit codes: 0 every storm survived, 1 operational error (artifact
// write failed), 2 usage, 3 at least one invariant breach (the CI gate),
// 130 interrupted — partial matrix flushed first.
//
// Example:
//
//	drstorm -storms 3
//	drstorm -protocols naive,committee -budget 10m -out storm-findings
//	drstorm -protocols naive,crashk,committee -drops 0,0.1,0.2 -flaps 0,2 -storms 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/download"
	"repro/internal/conformance"
	"repro/internal/obs"
	"repro/internal/source"
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

// parseList parses a comma-separated flag value element by element; an
// empty value is the one element "0".
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		s = "0"
	}
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// cell labels a grid spec's column in the survival matrix.
func cell(spec storm.Spec) string { return fmt.Sprintf("d=%.2f/f=%d", spec.Net.Drop, spec.Net.Flaps) }

// run executes the storm matrix and returns the exit code.
func run(args []string, stdout io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("drstorm", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		protoList = fs.String("protocols", "all", `comma-separated protocols to storm, or "all"`)
		n         = fs.Int("n", 6, "peers")
		tFlag     = fs.Int("t", 0, "fault bound of generated storms (0 = per-protocol conformance bound; grid cells have no faulty peer and run at t = 0)")
		l         = fs.Int("L", 512, "input bits")
		b         = fs.Int("b", 128, "message size parameter")
		storms    = fs.Int("storms", 3, "storm seeds per protocol, or per grid cell (fixed matrix; ignored with -budget)")
		baseSeed  = fs.Int64("seed", 1, "base storm seed (round k uses seed+k)")
		budget    = fs.Duration("budget", 0, "wall-clock soak budget: keep cycling storm rounds until it is spent (0 = fixed -storms matrix; not with a grid)")
		drops     = fs.String("drops", "", "sweep a chaos grid over these comma-separated drop rates")
		flaps     = fs.String("flaps", "", "sweep a chaos grid over these comma-separated connection flap counts")
		srcSpec   = fs.String("source-faults", "", `sweep a chaos grid with this seeded source fault plan on every run, e.g. "fail=0.2,timeout=0.1,seed=3"`)
		timeout   = fs.Duration("timeout", 30*time.Second, "per-storm timeout")
		outDir    = fs.String("out", "storm-findings", "artifact dir for failing storms (spec JSON + .dsr replay)")
		shrink    = fs.Bool("shrink", true, "minimize des-reproduced findings with the dst shrinker")
		verbose   = fs.Bool("v", false, "print every storm")
		obsAddr   = fs.String("obs", "", "serve observability endpoints on this address for the whole soak")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "drstorm: "+format+"\n", a...)
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
				return usage("unknown protocol %q (have %s)", p, strings.Join(names, ", "))
			}
			protos = append(protos, p)
		}
	}

	// round returns the specs of soak round k: one generated storm per
	// protocol, or, for a grid, every cell in round 0 and nothing after.
	grid := *drops != "" || *flaps != "" || *srcSpec != ""
	rounds := *storms
	round := func(k int) []storm.Spec {
		var specs []storm.Spec
		for _, p := range protos {
			info := infoByName[p]
			t := *tFlag
			if t == 0 {
				t = conformance.FaultBound(info, *n)
			}
			specs = append(specs, storm.Generate(info.Protocol, *n, t, *l, *b, *baseSeed+int64(k)))
		}
		return specs
	}
	var (
		cells   []string // grid columns, in sweep order
		gridNet string   // the network chaos every grid cell shares
	)
	if grid {
		dropRates, err := parseList(*drops, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
		if err != nil {
			return usage("bad -drops: %v", err)
		}
		flapCounts, err := parseList(*flaps, strconv.Atoi)
		if err != nil {
			return usage("bad -flaps: %v", err)
		}
		if _, err := source.ParsePlan(*srcSpec); err != nil {
			return usage("bad -source-faults: %v", err)
		}
		if *budget > 0 {
			return usage("-budget cycles generated storms; a grid is a fixed matrix")
		}
		var specs []storm.Spec
		for _, p := range protos {
			specs = append(specs, storm.Grid(download.Protocol(p), *n, *l, *b, dropRates, flapCounts, *storms, *srcSpec)...)
		}
		for _, spec := range specs {
			if c := cell(spec); !slices.Contains(cells, c) {
				cells = append(cells, c)
			}
		}
		if len(specs) > 0 {
			net := specs[0].Net
			gridNet = fmt.Sprintf("dup=%.2f delay=%dms reorder=%.2f partition=%v", net.Dup, net.DelayMs, net.Reorder, net.Partition)
		}
		rounds = 1
		round = func(int) []storm.Spec { return specs }
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
			return usage("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "drstorm: observability on http://%s/\n", srv.Addr)
	}

	var total storm.Tally
	tallies := make(map[string]*storm.Tally)
	cellTallies := make(map[string]*storm.Tally) // protocol + cell → tally
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
	for k := 0; !interrupted; k++ {
		if *budget > 0 {
			if k > 0 && time.Since(start) >= *budget {
				break
			}
		} else if k >= rounds {
			break
		}
		for _, spec := range round(k) {
			if check() {
				break
			}
			res, err := storm.Run(spec, storm.RunOptions{
				Timeout: *timeout, Metrics: reg, Timeline: timeline,
			})
			vs := storm.Check(spec, res, err)
			tallies[spec.Protocol].Add(res, vs)
			total.Add(res, vs)
			if grid {
				key := spec.Protocol + " " + cell(spec)
				if cellTallies[key] == nil {
					cellTallies[key] = &storm.Tally{}
				}
				cellTallies[key].Add(res, vs)
			}
			if len(vs) == 0 {
				if *verbose {
					fmt.Fprintf(stdout, "  %-28s ok     %s\n", spec.Name(), planes(spec))
				}
				continue
			}
			breaches++
			fmt.Fprintf(stdout, "  %-28s BREACH %s\n", spec.Name(), planes(spec))
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

	if grid {
		// A cell cut short by the interrupt reports pass/done, so the
		// flushed matrix never overstates coverage.
		fmt.Fprintf(stdout, "\nsurvival matrix (pass/seeds; n=%d L=%d b=%d; %s):\n\n", *n, *l, *b, gridNet)
		fmt.Fprintf(stdout, "%-12s", "PROTOCOL")
		for _, c := range cells {
			fmt.Fprintf(stdout, " %-12s", c)
		}
		fmt.Fprintln(stdout)
		for _, p := range protos {
			if tallies[p].Runs == 0 {
				continue // never started before the interrupt
			}
			fmt.Fprintf(stdout, "%-12s", p)
			for _, c := range cells {
				entry := "-"
				if tl := cellTallies[p+" "+c]; tl != nil {
					entry = fmt.Sprintf("%d/%d", tl.Survived, tl.Runs)
				}
				fmt.Fprintf(stdout, " %-12s", entry)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "\nrecovery work (totals across all runs):\n\n")
	} else {
		fmt.Fprintf(stdout, "\nstorm matrix (survived/storms; n=%d L=%d b=%d, every plane composed per seed):\n\n", *n, *l, *b)
	}
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
	fmt.Fprintf(stdout, "\nsource/mirror work (totals): src-failures=%d src-retries=%d breaker-opens=%d deferred=%d mirror-hits=%d proof-failures=%d fallback-queries=%d\n",
		total.SourceFailures, total.SourceRetries, total.BreakerOpens, total.DeferredQueries,
		total.MirrorHits, total.ProofFailures, total.FallbackQueries)
	fmt.Fprintf(stdout, "network work (totals): plan-dropped=%d plan-duped=%d dups-deduped=%d\n",
		total.PlanDropped, total.PlanDuped, total.DupFramesDropped)

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
