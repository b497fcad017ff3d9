package dst

import "fmt"

// Explore is dst's exhaustive mode: where Record and Search sample
// schedules, Explore enumerates them. It re-executes the replay's
// configuration once per distinct delivery order over its first depth
// scheduling decisions (FIFO afterwards), depth-first in mixed-radix
// order, and holds every execution to correctness and deadlock freedom.
// The replay's own Choices are ignored.
//
// The tree's fan-out is the number of pending events at each decision,
// so an exhaustive walk is only feasible for tiny configurations (n ≤ 4,
// L ≤ a few dozen bits, depth ≤ ~10) — exactly where asynchronous
// protocol bugs like the Algorithm 1 termination deadlock live, and where
// "verified for ALL schedules up to depth D" is a meaningful statement.
// budget caps the executions; past it, the report is not Exhaustive.
func Explore(r *Replay, depth, budget int) (*ExploreReport, error) {
	if depth <= 0 || budget <= 0 {
		return nil, fmt.Errorf("dst: explore depth %d and budget %d must be positive", depth, budget)
	}
	rep := &ExploreReport{Exhaustive: true}
	prefix := []int{}
	for {
		if rep.Executions >= budget {
			rep.Exhaustive = false
			return rep, nil
		}
		spec, err := r.spec()
		if err != nil {
			return nil, err
		}
		// The prefix's digits at the first depth decision points, FIFO
		// afterwards; radix is the fan-out seen at each of them.
		var radix []int
		out, err := run(spec, func(d, fanout int) int {
			if d >= depth {
				return 0
			}
			radix = append(radix, fanout)
			if d < len(prefix) {
				return prefix[d]
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		rep.Executions++
		for _, f := range radix {
			rep.MaxFanout = max(rep.MaxFanout, f)
		}
		if out.Result.Deadlocked {
			rep.Deadlocks++
		} else if !out.Result.Correct {
			rep.Failures++
		}
		if out.Violation() && rep.Witness == nil {
			rep.Witness = witness(r, prefix, out)
		}
		// Advance the mixed-radix odometer over the branching factors
		// this execution actually saw.
		next, ok := advance(prefix, radix)
		if !ok {
			return rep, nil
		}
		prefix = next
	}
}

// ExploreReport summarizes an exploration.
type ExploreReport struct {
	// Executions is the number of schedules run.
	Executions int
	// Exhaustive reports the full depth-D tree was covered within the
	// budget.
	Exhaustive bool
	// Failures counts executions with wrong outputs, Deadlocks those that
	// ran out of events early.
	Failures, Deadlocks int
	// MaxFanout is the largest branching factor seen at any choice.
	MaxFanout int
	// Witness is the first failing or deadlocked schedule as a replay
	// with its choices, event hash and expectation filled in, nil if none.
	Witness *Replay
}

// Ok reports a fully clean exploration.
func (r *ExploreReport) Ok() bool { return r.Failures == 0 && r.Deadlocks == 0 }

// String renders a one-line summary.
func (r *ExploreReport) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("%d executions (%s, max fan-out %d): %d failures, %d deadlocks",
		r.Executions, mode, r.MaxFanout, r.Failures, r.Deadlocks)
}

// witness pins one failing schedule of r: the prefix replays it, since
// the choices past it are FIFO under both choosers.
func witness(r *Replay, prefix []int, out *Outcome) *Replay {
	w := r.Clone()
	w.Choices = append([]int(nil), prefix...)
	w.EventHash = HashString(out.EventHash)
	w.Expect = ExpectViolation
	if out.Result.Deadlocked {
		w.Expect = ExpectDeadlock
	}
	return w
}

// advance increments the prefix as a mixed-radix counter whose digit
// radixes are the observed branching factors; it grows the prefix up to
// the recorded depth. Returns false when the space is exhausted.
func advance(prefix, radix []int) ([]int, bool) {
	// Extend to the deepest recorded choice depth first: enumeration
	// visits prefix-extensions before siblings.
	if len(prefix) < len(radix) {
		out := append(append([]int(nil), prefix...), make([]int, len(radix)-len(prefix))...)
		// All-zero extension was just executed as part of this run
		// (choices beyond the prefix default to 0), so step once.
		return increment(out, radix)
	}
	return increment(append([]int(nil), prefix...), radix)
}

func increment(digits, radix []int) ([]int, bool) {
	for i := len(digits) - 1; i >= 0; i-- {
		limit := 1
		if i < len(radix) {
			limit = radix[i]
		}
		digits[i]++
		if digits[i] < limit {
			return digits, true
		}
		digits = digits[:i] // carry: shrink and continue
	}
	return nil, false
}
