package dst

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/protocols"
)

// The Byzantine strategy search: a seeded enumeration of (strategy
// program, faulty set, schedule) triples against a protocol, looking for
// safety or liveness violations. Every violation is returned as a replay
// file — the search never reports anything it cannot hand you a
// deterministic reproduction of.

// SearchOptions configures one search.
type SearchOptions struct {
	// Protocol is the registry name under attack.
	Protocol string
	// N, T, L, MsgBits are the model parameters. T is also the size of
	// the faulty set the search controls.
	N, T, L, MsgBits int
	// Seed drives the whole search (strategy draws, input seeds, and
	// schedule seeds all derive from it).
	Seed int64
	// Strategies is the number of strategy programs to try (default 32).
	Strategies int
	// Schedules is the number of random schedules per strategy/faulty-set
	// pair (default 8).
	Schedules int
	// MaxFindings stops the search early once this many violations are
	// collected (0 = collect all within budget).
	MaxFindings int
	// Deadline, when non-zero, time-boxes the search (checked between
	// runs) — this is what the nightly job sets.
	Deadline time.Time
	// SourcePlan, when non-empty, runs every search execution against a
	// faulty source (source.ParsePlan grammar, step-time units): the
	// search then answers "does the adversary beat the protocol even
	// while the source misbehaves".
	SourcePlan string
	// Churn adds crash-recovery churn peers to every search execution
	// (disjoint from the faulty sets the search enumerates).
	Churn []ChurnPoint
	// Shrink minimizes each finding before returning it.
	Shrink bool
	// ShrinkRuns caps shrink executions per finding (0 = default).
	ShrinkRuns int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o *SearchOptions) defaults() {
	if o.Strategies == 0 {
		o.Strategies = 32
	}
	if o.Schedules == 0 {
		o.Schedules = 8
	}
	if o.MsgBits == 0 {
		o.MsgBits = 64
	}
}

// Finding is one reproducible violation.
type Finding struct {
	// Replay reproduces the violation deterministically (Expect is set to
	// violation and EventHash recorded; shrunk when SearchOptions.Shrink).
	Replay *Replay
	// Failures echoes the violated predicates from the run.
	Failures []string
	// Strategy is the program that produced it, rendered.
	Strategy string
}

// SearchReport summarizes one search.
type SearchReport struct {
	Protocol string
	Runs     int
	// Findings lists distinct violations (deduplicated by failure
	// signature — one replay per distinct way of failing).
	Findings []*Finding
	// TimedOut reports that the deadline cut the search short.
	TimedOut bool
	Elapsed  time.Duration
}

// Search enumerates Byzantine strategies against a protocol. It returns
// an error only for structural problems (unknown protocol, bad
// parameters); violations are findings, not errors.
func Search(opts SearchOptions) (*SearchReport, error) {
	opts.defaults()
	if _, err := protocols.Lookup(opts.Protocol); err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &SearchReport{Protocol: opts.Protocol}
	master := rand.New(rand.NewSource(opts.Seed))
	seen := make(map[string]bool) // failure-signature dedup

	faultySets := faultySets(opts.N, opts.T)
	if len(opts.Churn) > 0 {
		// Churn peers are extra faulty peers outside the search's control:
		// drop enumerated faulty sets that collide with them.
		churned := make(map[int]bool, len(opts.Churn))
		for _, cp := range opts.Churn {
			churned[cp.Peer] = true
		}
		kept := faultySets[:0]
		for _, set := range faultySets {
			overlap := false
			for _, p := range set {
				if churned[p] {
					overlap = true
					break
				}
			}
			if !overlap {
				kept = append(kept, set)
			}
		}
		faultySets = kept
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log(format, args...)
		}
	}

	for si := 0; si < opts.Strategies; si++ {
		if rep.timedOut(&opts) {
			break
		}
		strat := adversary.RandomStrategy(master, master.Int63())
		ops := make([]string, len(strat.Program))
		for i, op := range strat.Program {
			ops[i] = string(op)
		}
		for _, faulty := range faultySets {
			if rep.timedOut(&opts) {
				break
			}
			base := &Replay{
				Version: Version, Protocol: opts.Protocol,
				N: opts.N, T: opts.T, L: opts.L, MsgBits: opts.MsgBits,
				Fault:      FaultByzantine,
				Faulty:     faulty,
				Strategy:   &Strategy{Seed: strat.Seed, Ops: ops},
				SourcePlan: opts.SourcePlan,
				Churn:      append([]ChurnPoint(nil), opts.Churn...),
				Expect:     ExpectViolation,
			}
			for sc := 0; sc < opts.Schedules; sc++ {
				if rep.timedOut(&opts) {
					break
				}
				base.Seed = master.Int63()
				rec, out, err := Record(base, master.Int63())
				if err != nil {
					return nil, err
				}
				rep.Runs++
				if !out.Violation() {
					continue
				}
				sig := signature(out.Result.Failures)
				if seen[sig] {
					continue
				}
				seen[sig] = true
				logf("search: %s violated by %s faulty=%v: %v",
					opts.Protocol, strat, faulty, out.Result.Failures)
				if opts.Shrink {
					shrunk, srep, err := Shrink(rec, ShrinkOptions{MaxRuns: opts.ShrinkRuns})
					if err == nil {
						logf("search: shrunk %d -> %d choices in %d runs",
							srep.InitialChoices, srep.FinalChoices, srep.Runs)
						rec = shrunk
					}
				}
				rep.Findings = append(rep.Findings, &Finding{
					Replay:   rec,
					Failures: append([]string(nil), out.Result.Failures...),
					Strategy: strat.String(),
				})
				if opts.MaxFindings > 0 && len(rep.Findings) >= opts.MaxFindings {
					rep.Elapsed = time.Since(start)
					return rep, nil
				}
			}
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func (r *SearchReport) timedOut(opts *SearchOptions) bool {
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		r.TimedOut = true
		return true
	}
	return false
}

// signature canonicalizes a failure list for dedup. Peer ids and counts
// vary between schedules; the predicate names are what distinguish
// genuinely different violations, so the signature keeps only the part
// of each failure up to the first ':'.
func signature(failures []string) string {
	kinds := make(map[string]bool)
	for _, f := range failures {
		k := f
		for i := 0; i < len(f); i++ {
			if f[i] == ':' {
				k = f[:i]
				break
			}
		}
		kinds[k] = true
	}
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// faultySets enumerates the faulty-peer placements the search tries: the
// canonical prefix {0..t-1}, an evenly spread set, and a suffix set —
// three placements that between them cover "attack the low block owners",
// "attack scattered owners", and "attack the high block owners" under
// the repo's block-assignment conventions.
func faultySets(n, t int) [][]int {
	if t <= 0 {
		return [][]int{nil}
	}
	uniq := map[string][]int{}
	add := func(ids []int) {
		sort.Ints(ids)
		uniq[fmt.Sprint(ids)] = ids
	}
	prefix := make([]int, t)
	for i := range prefix {
		prefix[i] = i
	}
	add(prefix)
	spread := make([]int, 0, t)
	for _, id := range adversary.SpreadFaulty(n, t) {
		spread = append(spread, int(id))
	}
	add(spread)
	suffix := make([]int, t)
	for i := range suffix {
		suffix[i] = n - t + i
	}
	add(suffix)
	keys := make([]string, 0, len(uniq))
	for k := range uniq {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, uniq[k])
	}
	return out
}
