package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dst"
)

// a7Exhaustive reports the bounded-exhaustive verification results: for
// tiny configurations, every delivery schedule up to the stated decision
// depth is enumerated and checked. Unlike the statistical experiments,
// these rows are universally quantified — "0 failures" means no schedule
// in the covered tree breaks the protocol, the strongest statement a
// finite harness makes.
func a7Exhaustive(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "n", "crash-point", "depth", "schedules",
			"coverage", "failures", "deadlocks"},
		Notes: []string{
			"each row enumerates EVERY delivery order up to the decision depth",
			"the crash1 row family covers the configuration in which schedule fuzzing found the termination deadlock (fixed; see crash1/deadlock_regression_test.go)",
		},
	}
	depth := 6
	budget := 400000
	if cfg.Quick {
		depth = 4
		budget = 50000
	}
	type row struct {
		name  string
		n, tf int
		crash []dst.CrashPoint
	}
	rows := []row{
		{"naive", 3, 0, nil},
		{"crash1", 3, 1, []dst.CrashPoint{{Peer: 0, Point: 0}}},
		{"crash1", 3, 1, []dst.CrashPoint{{Peer: 0, Point: 4}}},
		{"crash1", 3, 1, []dst.CrashPoint{{Peer: 0, Point: 8}}},
		{"crashk", 3, 1, []dst.CrashPoint{{Peer: 0, Point: 5}}},
		{"crashk", 4, 2, []dst.CrashPoint{{Peer: 0, Point: 3}, {Peer: 2, Point: 9}}},
	}
	for _, r := range rows {
		replay := &dst.Replay{
			Version: dst.Version, Protocol: r.name,
			N: r.n, T: r.tf, L: 12, MsgBits: 64, Seed: cfg.Seed,
		}
		var points []string
		for _, cp := range r.crash {
			replay.Fault = dst.FaultCrash
			replay.Faulty = append(replay.Faulty, cp.Peer)
			replay.CrashPoints = append(replay.CrashPoints, cp)
			points = append(points, fmt.Sprintf("p%d@%d", cp.Peer, cp.Point))
		}
		rep, err := dst.Explore(replay, depth, budget)
		if err != nil {
			return nil, err
		}
		coverage := "exhaustive"
		if !rep.Exhaustive {
			coverage = "budget-capped"
		}
		point := strings.Join(points, " ")
		if point == "" {
			point = "-"
		}
		t.AddRow(r.name, itoa(r.n), point, itoa(depth),
			itoa(rep.Executions), coverage, itoa(rep.Failures), itoa(rep.Deadlocks))
		if !rep.Ok() {
			return nil, fmt.Errorf("A7 %s: %v (witness %v)", r.name, rep, rep.Witness.Choices)
		}
	}
	return t, nil
}
