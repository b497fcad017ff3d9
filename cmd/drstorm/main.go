// Command drstorm runs seeded composed-fault storms on the real-socket
// runtime and gates on the model's invariants. Each storm layers every
// fault plane the repo implements onto one execution — network chaos,
// a flaky source with an outage window, a Byzantine-majority mirror
// fleet, crash-recovery churn, and a hub shard bounce — all derived
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
	"repro/internal/sim"
	"repro/internal/storm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, notifyInterrupt()))
}

// notifyInterrupt converts SIGINT/SIGTERM into a closed channel so the
// soak stops at a storm boundary and still flushes its partial matrix
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

// tally accumulates one protocol's storm outcomes and recovery work.
type tally struct {
	runs, survived                     int
	rejoins, ckptSaves, ckptRestores   int
	shardRestarts, retries, reconnects int
	srcFailures, srcRetries            int
	proofFailures, fallbackQueries     int
}

func (a *tally) add(res *sim.Result) {
	if res == nil {
		return
	}
	a.rejoins += res.Rejoins
	a.ckptSaves += res.CheckpointSaves
	a.ckptRestores += res.CheckpointRestores
	a.shardRestarts += res.ShardRestarts
	a.retries += res.QueryRetries
	a.reconnects += res.Reconnects
	a.srcFailures += res.SourceFailures
	a.srcRetries += res.SourceRetries
	a.proofFailures += res.ProofFailures
	a.fallbackQueries += res.FallbackQueries
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
	if spec.Bounce != nil {
		parts = append(parts, fmt.Sprintf("bounce(shard %d)", spec.Bounce.Shard))
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

	tallies := make(map[string]*tally)
	for _, p := range protos {
		tallies[p] = &tally{}
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
			tl := tallies[p]
			tl.runs++
			tl.add(res)
			if len(vs) == 0 {
				tl.survived++
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
			case f.ReplayFile != "":
				kind := "socket-only (des control pinned)"
				if f.DesReproduced {
					kind = "des-reproduced (shrunk replay)"
				}
				fmt.Fprintf(stdout, "    artifact: %s — %s\n", f.ReplayFile, kind)
			default:
				fmt.Fprintf(stdout, "    artifact: spec JSON only (%s has no des port)\n", p)
			}
		}
	}

	fmt.Fprintf(stdout, "\nstorm matrix (survived/storms; n=%d L=%d b=%d, every plane composed per seed):\n\n", *n, *l, *b)
	fmt.Fprintf(stdout, "%-12s %-10s %-8s %-12s %-14s %-8s %-10s\n",
		"PROTOCOL", "SURVIVED", "REJOINS", "CKPT(S/R)", "SHARD-BOUNCE", "RETRIES", "RECONNECTS")
	for _, p := range protos {
		tl := tallies[p]
		if tl.runs == 0 {
			continue // never started before the interrupt
		}
		fmt.Fprintf(stdout, "%-12s %-10s %-8d %-12s %-14d %-8d %-10d\n",
			p, fmt.Sprintf("%d/%d", tl.survived, tl.runs), tl.rejoins,
			fmt.Sprintf("%d/%d", tl.ckptSaves, tl.ckptRestores),
			tl.shardRestarts, tl.retries, tl.reconnects)
	}
	fmt.Fprintf(stdout, "\nsource/mirror work (totals): ")
	var sf, sr, pf, fq int
	for _, tl := range tallies {
		sf += tl.srcFailures
		sr += tl.srcRetries
		pf += tl.proofFailures
		fq += tl.fallbackQueries
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
