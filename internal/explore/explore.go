// Package explore is a bounded-exhaustive schedule explorer — a miniature
// model checker for the DR protocols. Where the coverage-guided schedule
// fuzzer (package des's fuzz targets) samples interleavings, explore
// ENUMERATES them: it re-executes a protocol once per distinct delivery
// order over the first MaxChoices scheduling decisions (the tail of each
// execution follows a fixed FIFO order), checking every execution for
// correctness and deadlock.
//
// The state space is the tree of "which pending event is delivered next"
// decisions; its fan-out is the number of in-flight events at each step,
// so exhaustive exploration is only feasible for tiny configurations
// (n ≤ 4, L ≤ a few dozen bits, MaxChoices ≤ ~10). That is exactly the
// regime where asynchronous protocol bugs like the Algorithm 1 termination
// deadlock live — the fuzzer found it at n = 4 — and where "verified for
// ALL schedules up to depth D" is a meaningful statement.
//
// The explorer is an enumerator, not an engine: every schedule runs on
// des's choice-driven scheduler (des.RunChoices, through dst.RunPrefix),
// where event delivery is chosen by a prefix of choice indices instead of
// virtual time. Delays are irrelevant — reordering subsumes them.
package explore

import (
	"errors"
	"fmt"

	"repro/internal/dst"
	"repro/internal/sim"
)

// Config bounds one exploration.
type Config struct {
	// N, T, L are the model parameters.
	N, T, L int
	// Seed fixes the input and peer coins across all schedules.
	Seed int64
	// NewPeer builds the protocol under test.
	NewPeer func(sim.PeerID) sim.Peer
	// CrashPoints optionally crashes peers at action counts (they are
	// the faulty set; len ≤ T).
	CrashPoints map[sim.PeerID]int
	// MaxChoices is the explored decision depth D (default 8).
	MaxChoices int
	// Budget caps the number of executions (default 200000); if the
	// full tree is larger, Report.Exhaustive is false.
	Budget int
}

func (c *Config) validate() error {
	if c.NewPeer == nil {
		return errors.New("explore: missing NewPeer")
	}
	sc := sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: 64, Seed: c.Seed}
	if err := sc.Validate(); err != nil {
		return err
	}
	if len(c.CrashPoints) > c.T {
		return fmt.Errorf("explore: %d crash points exceeds t=%d", len(c.CrashPoints), c.T)
	}
	return nil
}

// cell is the configuration in the form dst.RunPrefix runs.
func (c *Config) cell() dst.Cell {
	return dst.Cell{
		N: c.N, T: c.T, L: c.L, MsgBits: 64, Seed: c.Seed,
		NewPeer: c.NewPeer, CrashPoints: c.CrashPoints,
	}
}

// Report summarizes an exploration.
type Report struct {
	// Executions is the number of schedules run.
	Executions int
	// Exhaustive reports the full depth-D tree was covered within Budget.
	Exhaustive bool
	// Failures counts executions with wrong outputs.
	Failures int
	// Deadlocks counts executions that ran out of events early.
	Deadlocks int
	// FirstBad holds the choice prefix of the first failing or
	// deadlocked execution (replayable via Replay), nil if none.
	FirstBad []int
	// MaxFanout is the largest branching factor seen at any choice.
	MaxFanout int
}

// Ok reports a fully clean exploration.
func (r *Report) Ok() bool { return r.Failures == 0 && r.Deadlocks == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("%d executions (%s, max fan-out %d): %d failures, %d deadlocks",
		r.Executions, mode, r.MaxFanout, r.Failures, r.Deadlocks)
}

// Run explores all delivery schedules of the configuration up to the
// choice depth, depth-first in mixed-radix order.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxChoices <= 0 {
		cfg.MaxChoices = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 200000
	}
	rep := &Report{Exhaustive: true}
	cell := cfg.cell()
	prefix := []int{}
	for {
		if rep.Executions >= cfg.Budget {
			rep.Exhaustive = false
			return rep, nil
		}
		// The prefix's digits at the first MaxChoices decision points,
		// FIFO afterwards; radix is the fan-out seen at each of them.
		out, radix := dst.RunPrefix(cell, prefix, cfg.MaxChoices)
		rep.Executions++
		for _, r := range radix {
			if r > rep.MaxFanout {
				rep.MaxFanout = r
			}
		}
		bad := false
		if out.Result.Deadlocked {
			rep.Deadlocks++
			bad = true
		} else if !out.Result.Correct {
			rep.Failures++
			bad = true
		}
		if bad && rep.FirstBad == nil {
			rep.FirstBad = append([]int(nil), prefix...)
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

// Replay runs a single schedule (e.g., Report.FirstBad) and returns its
// correctness and deadlock status.
func Replay(cfg Config, prefix []int) (correct, deadlocked bool, err error) {
	if err := cfg.validate(); err != nil {
		return false, false, err
	}
	out, _ := dst.RunPrefix(cfg.cell(), prefix, len(prefix))
	return out.Result.Correct, out.Result.Deadlocked, nil
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
			return digits[:], true
		}
		digits[i] = 0
		digits = digits[:i] // carry: shrink and continue
	}
	return nil, false
}
