// Command drchaos soaks Download protocols on the real-socket runtime
// under seeded network chaos: it sweeps drop rate × connection flaps for
// each protocol, layers on duplication, jitter with reordering, and an
// optional healed partition, and prints a survival matrix. Every cell is
// a storm spec (internal/storm) built from the flags, run by storm.Run
// and held to storm.Check's invariants: every honest peer outputs X, Q
// stays inside the protocol's envelope, rejoining churn peers restore
// from their checkpoints, and rejected mirror proofs fall back to the
// source. Every run's fault schedule is a pure function of its seed, so
// a failing cell can be replayed exactly.
//
// With -churn (or a seeded schedule via -storm-seed) the matrix gains a
// crash-recovery column: churn peers crash themselves mid-run and, when
// scheduled to rejoin, restore warm from durable checkpoints over the
// RESUME handshake; the summary then reports rejoin and checkpoint
// counters alongside the network-recovery work.
//
// Exit codes: 0 every run survived, 1 a run breached an invariant, 2
// usage, 130 interrupted — partial matrix flushed first.
//
// Example:
//
//	drchaos -seeds 3
//	drchaos -protocols committee -drops 0,0.1,0.25 -flaps 0,3 -partition=false
//	drchaos -protocols naive -churn 1:2:0.2,3:4:-1
//	drchaos -storm-seed 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/download"
	"repro/internal/adversary"
	"repro/internal/conformance"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/storm"
)

// main stops the soak at a run boundary on SIGINT/SIGTERM, and the
// partial survival matrix is still flushed (CI kills a timed-out job with
// SIGTERM; the evidence must survive the kill). A second signal kills the
// process.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(os.Args[1:], os.Stdout, ctx.Done()))
}

// parseList parses a comma-separated flag value element by element.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
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

// run executes the soak and returns its exit code: 0 when every run
// survived, 1 on failures, 2 on usage errors, 130 when interrupted —
// in which case the partial survival matrix is still flushed first.
func run(args []string, stdout io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("drchaos", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		protoList = fs.String("protocols", "naive,crashk,committee", "comma-separated protocols to soak")
		n         = fs.Int("n", 6, "peers")
		t         = fs.Int("t", 0, "fault bound (0 with -faulty, -churn or -storm-seed: the protocol's conformance fault bound)")
		faulty    = fs.Int("faulty", 0, "peers absent from the start (≤ t)")
		l         = fs.Int("L", 512, "input bits")
		b         = fs.Int("b", 128, "message size parameter")
		drops     = fs.String("drops", "0,0.1,0.2", "comma-separated drop rates to sweep")
		flaps     = fs.String("flaps", "0,2", "comma-separated flap counts to sweep")
		dup       = fs.Float64("dup", 0.1, "duplication probability")
		delay     = fs.Duration("delay", 2*time.Millisecond, "max jitter per delivery (whole milliseconds)")
		reorder   = fs.Float64("reorder", 0.05, "forced-reordering probability")
		partition = fs.Bool("partition", true, "include one healed partition (needs n ≥ 4)")
		srcSpec   = fs.String("source-faults", "", `seeded source fault plan layered on every run, e.g. "fail=0.25,outage=0..0.5,seed=7"`)
		mirSpec   = fs.String("mirrors", "", `untrusted mirror fleet plan layered on every run, e.g. "mirrors=5,byz=3,behavior=mixed,seed=7" (QPROOF frames ride the chaotic links too)`)
		churnSpec = fs.String("churn", "", `churn schedule "peer:crashAfter:downtime,..." layered on every run (negative downtime crashes for good; rejoining peers restore from durable checkpoints over the RESUME handshake)`)
		stormSeed = fs.Int64("storm-seed", 0, "derive a seeded per-protocol churn schedule from the storm generator's crash plane instead of -churn (0 = off)")
		seeds     = fs.Int("seeds", 3, "seeds per cell")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-run timeout")
		verbose   = fs.Bool("v", false, "print every run")
		obsAddr   = fs.String("obs", "", "serve observability endpoints on this address for the whole soak (one registry accumulates across runs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "drchaos: "+format+"\n", a...)
		return 2
	}

	dropRates, err := parseList(*drops, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
	if err != nil {
		return usage("bad -drops: %v", err)
	}
	flapCounts, err := parseList(*flaps, strconv.Atoi)
	if err != nil {
		return usage("bad -flaps: %v", err)
	}
	if *delay%time.Millisecond != 0 {
		return usage("bad -delay %v: jitter is a whole number of milliseconds", *delay)
	}
	if *faulty < 0 {
		return usage("-faulty %d must not be negative", *faulty)
	}
	if _, err := source.ParsePlan(*srcSpec); err != nil {
		return usage("bad -source-faults: %v", err)
	}
	if _, err := source.ParseMirrorPlan(*mirSpec); err != nil {
		return usage("bad -mirrors: %v", err)
	}
	if *churnSpec != "" && *stormSeed != 0 {
		return usage("-churn and -storm-seed are mutually exclusive")
	}
	baseChurn, err := download.ParseChurn(*churnSpec)
	if err != nil {
		return usage("bad -churn: %v", err)
	}
	infoByName := make(map[string]download.Info)
	for _, info := range download.Protocols() {
		infoByName[string(info.Protocol)] = info
	}

	// One base spec per protocol; a cell sets its network plane and seed.
	var protos []string
	var specs []storm.Spec
	for _, ps := range strings.Split(*protoList, ",") {
		proto := download.Protocol(strings.TrimSpace(ps))
		info, ok := infoByName[string(proto)]
		if !ok {
			return usage("unknown protocol %q", proto)
		}
		// Crash-recovery plane: an explicit -churn schedule, or the storm
		// generator's seeded crash plane (which schedules rejoining churn
		// only where a cold protocol restart converges). When any peer is
		// faulty and no -t was given, the per-protocol conformance fault
		// bound keeps the faulty peers inside the budget.
		tb := *t
		if tb == 0 && (*faulty > 0 || len(baseChurn) > 0 || *stormSeed != 0) {
			tb = conformance.FaultBound(info, *n)
		}
		if *faulty > tb {
			return usage("-faulty %d exceeds the fault bound t=%d of %s", *faulty, tb, proto)
		}
		spec := storm.Spec{
			Protocol: string(proto), N: *n, T: tb, L: *l, MsgBits: *b,
			SourceFaults: *srcSpec,
			Mirrors:      *mirSpec,
		}
		for _, p := range adversary.SpreadFaulty(*n, *faulty) {
			spec.Absent = append(spec.Absent, int(p))
		}
		for _, cp := range baseChurn {
			spec.Churn = append(spec.Churn, storm.ChurnEntry{Peer: cp.Peer, CrashAfter: cp.CrashAfter, Downtime: cp.Downtime})
		}
		if *stormSeed != 0 {
			spec.Churn = append(spec.Churn, storm.Generate(proto, *n, tb, *l, *b, *stormSeed).Churn...)
		}
		protos = append(protos, string(proto))
		specs = append(specs, spec)
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
		fmt.Fprintf(os.Stderr, "drchaos: observability on http://%s/\n", srv.Addr)
	}

	var combos []storm.NetPlan
	for _, d := range dropRates {
		for _, f := range flapCounts {
			combos = append(combos, storm.NetPlan{
				Drop: d, Dup: *dup, Reorder: *reorder,
				DelayMs: int(*delay / time.Millisecond), Flaps: f, Partition: *partition,
			})
		}
	}

	results := make(map[string][]string) // protocol → cell strings
	tallies := make(map[string]*storm.Tally)
	failures := 0
	interrupted := false
	// check polls the interrupt channel at run boundaries so a SIGTERM'd
	// soak stops promptly but never mid-run.
	check := func() bool {
		select {
		case <-interrupt:
			interrupted = true
			return true
		default:
			return false
		}
	}

	for i, spec := range specs {
		proto := protos[i]
		tl := &storm.Tally{}
		tallies[proto] = tl
		for _, net := range combos {
			spec.Net = net
			pass, done := 0, 0
			for seed := 1; seed <= *seeds && !check(); seed++ {
				spec.Seed = int64(seed)
				res, err := storm.Run(spec, storm.RunOptions{
					Timeout: *timeout, Metrics: reg, Timeline: timeline,
				})
				vs := storm.Check(spec, res, err)
				done++
				if len(vs) == 0 {
					pass++
				} else {
					failures++
				}
				tl.Add(res, vs)
				if *verbose || len(vs) > 0 {
					detail := "ok"
					if len(vs) > 0 {
						parts := make([]string, len(vs))
						for i, v := range vs {
							parts[i] = v.String()
						}
						detail = strings.Join(parts, "; ")
					}
					fmt.Fprintf(stdout, "  %-10s drop=%.2f flaps=%d seed=%d: %s\n",
						proto, net.Drop, net.Flaps, seed, detail)
				}
			}
			// A cell cut short by the interrupt reports pass/done rather
			// than pass/seeds so the flushed matrix never overstates
			// coverage; completed cells have done == seeds.
			if done > 0 || !interrupted {
				results[proto] = append(results[proto], fmt.Sprintf("%d/%d", pass, done))
			}
			if interrupted {
				break
			}
		}
		if interrupted {
			break
		}
	}

	fmt.Fprintf(stdout, "\nsurvival matrix (pass/seeds; dup=%.2f delay=%v reorder=%.2f partition=%v):\n\n",
		*dup, *delay, *reorder, *partition && *n >= 4)
	fmt.Fprintf(stdout, "%-12s", "PROTOCOL")
	for _, c := range combos {
		fmt.Fprintf(stdout, " %-12s", fmt.Sprintf("d=%.2f/f=%d", c.Drop, c.Flaps))
	}
	fmt.Fprintln(stdout)
	for _, p := range protos {
		if _, ran := tallies[p]; !ran {
			continue // protocol never started before the interrupt
		}
		fmt.Fprintf(stdout, "%-12s", p)
		for _, cell := range results[p] {
			fmt.Fprintf(stdout, " %-12s", cell)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "\nrecovery work (totals across all runs):\n")
	for _, p := range protos {
		tl := tallies[p]
		if tl == nil {
			continue
		}
		fmt.Fprintf(stdout, "%-12s query-retries=%-5d reconnects=%-5d plan-dropped=%-6d plan-duped=%-5d dups-deduped=%d\n",
			p, tl.QueryRetries, tl.Reconnects, tl.PlanDropped, tl.PlanDuped, tl.DupFramesDropped)
		if *srcSpec != "" {
			fmt.Fprintf(stdout, "%-12s src-failures=%-5d src-retries=%-5d breaker-opens=%-5d deferred=%d\n",
				"", tl.SourceFailures, tl.SourceRetries, tl.BreakerOpens, tl.DeferredQueries)
		}
		if *mirSpec != "" {
			fmt.Fprintf(stdout, "%-12s mirror-hits=%-5d proof-failures=%-5d fallback-queries=%d\n",
				"", tl.MirrorHits, tl.ProofFailures, tl.FallbackQueries)
		}
		if len(baseChurn) > 0 || *stormSeed != 0 {
			fmt.Fprintf(stdout, "%-12s rejoins=%-5d ckpt-saves=%-5d ckpt-restores=%d\n",
				"", tl.Rejoins, tl.CheckpointSaves, tl.CheckpointRestores)
		}
	}

	if interrupted {
		fmt.Fprintf(stdout, "\nINTERRUPTED: partial matrix flushed (%d failures so far)\n", failures)
		return 130
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "\nFAILED: %d runs did not survive\n", failures)
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: all runs survived\n")
	return 0
}
