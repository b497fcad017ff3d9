// Package protocols is the protocol table: one row per registry name,
// holding every fact the rest of the repository knows about a protocol —
// its peer factory, its row of the paper's Table 1, its attackers, its
// hardening ladder, its complexity envelope and how the test harnesses
// may run it. download, dst, conformance, storm and the experiments read
// a protocol's facts here and keep no switch or map of their own, so a
// protocol is added or renamed in one row (docs/PROTOCOLS.md).
//
// Replay files and conformance fixtures name protocols by Row.Name, so a
// row's name must stay stable once a file naming it is committed.
package protocols

import (
	"fmt"
	"sort"

	"repro/internal/adversary"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// Row is one protocol's facts.
type Row struct {
	Name string
	// Doc is a one-line description for CLI listings.
	Doc string
	// New builds the honest peer (or, for a test hook, the deliberately
	// flawed variant under test).
	New func(sim.PeerID) sim.Peer
	// TestHook marks deliberately weakened variants: they exist to prove
	// the search and shrinker detect real violations, are excluded from
	// "the protocols are safe" default target sets, and are not public
	// download protocols. A test hook has no Table 1 facts, attackers,
	// ladder or envelope.
	TestHook bool
	// Randomized marks protocols that are correct w.h.p. rather than
	// deterministically (their violations need seed-aware triage).
	Randomized bool

	// The protocol's row of Table 1: its fault model ("any", "crash" or
	// "byzantine"), resilience, asymptotic query complexity and theorem.
	FaultModel, Resilience, Query, Theorem string
	// MaxT, when positive, is the fault bound the protocol tolerates at
	// any n (crash1: one crash); zero leaves it to the fault model.
	MaxT int

	// Liar and Equivocator are the strongest protocol-aware attackers of
	// the liar and equivocate behaviors. Crash protocols have no
	// Byzantine-aware attacker; silence is the strongest valid behavior
	// in their model.
	Liar, Equivocator func(sim.PeerID, *sim.Knowledge) sim.Peer
	// Ladder orders protocols by weakening assumptions, starting at this
	// one: randomized Byzantine protocols fall back to the deterministic
	// committee protocol and finally to naive (correct for any β < 1, the
	// unavoidable fallback once β ≥ 1/2 — see docs/HARDENING.md); crash
	// protocols fall back within the crash family before naive.
	Ladder []string
	// Envelope bounds the protocol's per-run complexity (docs/SPEC.md).
	Envelope Envelope
	// QScheduleInvariant marks protocols whose fault-free Q is fixed by
	// (n, t, L, seed) alone, so tcp must reproduce the des-pinned Q. The
	// crashk family and crash1 re-query whichever blocks the schedule
	// leaves last, so they are held to their envelope instead; see
	// docs/SPEC.md, "Runtime invariance".
	QScheduleInvariant bool
	// StormRejoin admits rejoining churn into the protocol's storms. A
	// rejoined peer restarts from scratch with only its persisted source
	// bits warm: the source-only naive converges, but a message-coupled
	// protocol's peers may have moved past the rounds it replays, so its
	// storms crash churn peers for good, which it must absorb within t.
	StormRejoin bool
}

// Envelope bounds a protocol's per-run complexity. The bounds are the
// executable half of the per-protocol Q/M/T envelopes pinned in
// docs/SPEC.md: asymptotic theorems instantiated with explicit constants
// and roughly 2× headroom over the worst value observed across the
// conformance grid, so they catch gross cost regressions (a protocol
// silently degenerating toward naive, a message storm) without flaking
// on legitimate schedule variance. A violated envelope fails the cell —
// and the run — even when the output is correct.
type Envelope struct {
	// MaxQ bounds the query complexity Q (bits). Negative disables.
	MaxQ func(n, t, L, b int) int
	// MaxMsgs bounds the honest message complexity. Negative disables.
	MaxMsgs func(n, t, L, b int) int
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// crashkEnvelope is CrashK's and CrashKFast's: the fast stage-3 rule
// trades time, not queries. Thm 2.13: O(L/n) for any β < 1; the constant
// scales with the surviving fraction, so bound by the per-survivor share
// L/(n−t). Messages grow with the crash count: every crash can trigger a
// reassignment round of O(n²) chunked frames.
var crashkEnvelope = Envelope{
	MaxQ:    func(n, t, L, b int) int { return 4*ceilDiv(L, n-t) + 2*b },
	MaxMsgs: func(n, t, L, b int) int { return 16 * n * n * (t + 2) * (ceilDiv(L, n*b) + 2) },
}

// table holds the rows in listing order: the public protocols in the
// order of the paper's Table 1, each followed by its test hooks.
var table = []Row{{
	Name: "naive", Doc: "every peer queries the full input (Q = L)", New: naive.New,
	FaultModel: "any", Resilience: "any β < 1", Query: "L", Theorem: "folklore; optimal for β ≥ 1/2 (Thm 3.1/3.2)",
	Liar: adversary.NewSilent, Equivocator: adversary.NewSilent, Ladder: []string{"naive"},
	// Q = L exactly (Thm 3.1/3.2 optimum at β ≥ 1/2); no messages.
	Envelope: Envelope{
		MaxQ:    func(n, t, L, b int) int { return L },
		MaxMsgs: func(n, t, L, b int) int { return 0 },
	},
	QScheduleInvariant: true, StormRejoin: true,
}, {
	Name: "crash1", Doc: "Algorithm 1: one crash fault, Q = O(L/n)", New: crash1.New,
	FaultModel: "crash", Resilience: "t = 1", Query: "L/n + L/(n(n−1))", Theorem: "Thm 2.3", MaxT: 1,
	Liar: adversary.NewSilent, Equivocator: adversary.NewSilent, Ladder: []string{"crash1", "crashk", "naive"},
	// Thm 2.3: L/n + L/(n(n−1)) fault-free; a crash at most doubles a
	// survivor's share. Messages: O(n) rounds of O(n) pushes, each chunked
	// into ≤ ceil(L/(n·b))+1 frames.
	Envelope: Envelope{
		MaxQ:    func(n, t, L, b int) int { return 2*ceilDiv(L, n-1) + 2*ceilDiv(L, n*(n-1)) + 2*b },
		MaxMsgs: func(n, t, L, b int) int { return 16 * n * n * (ceilDiv(L, n*b) + 2) },
	},
}, {
	Name: "crash1-legacy", TestHook: true, New: crash1.NewLegacy,
	Doc: "Algorithm 1 with the PRE-FIX silent termination (deadlocks at n=4)",
}, {
	Name: "crashk", Doc: "Algorithm 2: t crash faults", New: crashk.New,
	FaultModel: "crash", Resilience: "any β < 1", Query: "O(L/n)", Theorem: "Thm 2.13 (Alg. 2)",
	Liar: adversary.NewSilent, Equivocator: adversary.NewSilent, Ladder: []string{"crashk", "naive"},
	Envelope: crashkEnvelope,
}, {
	Name: "crashk-fast", Doc: "Algorithm 2 with the fast stage-3 rule", New: crashk.NewFast,
	FaultModel: "crash", Resilience: "any β < 1", Query: "O(L/n), better time", Theorem: "Thm 2.13 (modified)",
	Liar: adversary.NewSilent, Equivocator: adversary.NewSilent, Ladder: []string{"crashk-fast", "naive"},
	Envelope: crashkEnvelope,
}, {
	Name: "committee", Doc: "Theorem 3.4 committees, Byzantine β < 1/2", New: committee.New,
	FaultModel: "byzantine", Resilience: "β < 1/2", Query: "L(2t+1)/n ≈ 2βL", Theorem: "Thm 3.4",
	Liar: committee.NewLiar, Equivocator: committee.NewEquivocator, Ladder: []string{"committee", "naive"},
	// Thm 3.4: each bit is served by a (2t+1)-committee, so a peer owns
	// ≤ ceil(L/n) indices queried by 2t+1 members, and every member
	// reports its values to all n peers in chunked frames.
	Envelope: Envelope{
		MaxQ:    func(n, t, L, b int) int { return (2*t+1)*ceilDiv(L, n) + b },
		MaxMsgs: func(n, t, L, b int) int { return 8 * n * n * (2*t + 2) * (ceilDiv(L, n*b) + 1) },
	},
	QScheduleInvariant: true,
}, {
	Name: "committee-weak", TestHook: true, New: committee.NewWeak,
	Doc: "committee with acceptance threshold t instead of t+1 (unsafe)",
}, {
	Name: "twocycle", Doc: "Theorem 3.7 two-cycle randomized protocol", New: twocycle.New, Randomized: true,
	FaultModel: "byzantine", Resilience: "β < 1/2", Query: "Õ(L/n) whp", Theorem: "Thm 3.7 (Protocol 4)",
	Liar: segproto.NewColludingLiar, Equivocator: segproto.NewScatterLiar,
	Ladder: []string{"twocycle", "committee", "naive"},
	// Thm 3.7: Õ(L/n) whp at scale; at conformance-grid sizes the
	// fallback cycle dominates, so the sound universal bound is the naive
	// ceiling per cycle (2 cycles).
	Envelope: Envelope{
		MaxQ:    func(n, t, L, b int) int { return 2 * L },
		MaxMsgs: func(n, t, L, b int) int { return 4 * n * n * (ceilDiv(L, b) + 2) },
	},
	QScheduleInvariant: true,
}, {
	Name: "twocycle-weak", TestHook: true, Randomized: true, New: twocycle.NewWeak,
	Doc: "two-cycle with frequency threshold forced to 1 (unsafe)",
}, {
	Name: "multicycle", Doc: "Theorem 3.12 multi-cycle randomized protocol", New: multicycle.New, Randomized: true,
	FaultModel: "byzantine", Resilience: "β < 1/2", Query: "Õ(L/n) expected", Theorem: "Thm 3.12",
	Liar: segproto.NewColludingLiar, Equivocator: segproto.NewScatterLiar,
	Ladder: []string{"multicycle", "twocycle", "committee", "naive"},
	// Thm 3.12: expected Õ(L/n); bounded per cycle like twocycle with
	// O(log n) cycles.
	Envelope: Envelope{
		MaxQ:    func(n, t, L, b int) int { return 2 * L },
		MaxMsgs: func(n, t, L, b int) int { return 4 * n * n * (ceilDiv(L, b) + 2) },
	},
	QScheduleInvariant: true,
}, {
	Name: "multicycle-weak", TestHook: true, Randomized: true, New: multicycle.NewWeak,
	Doc: "multi-cycle with frequency threshold forced to 1 (unsafe)",
}}

// Rows returns every row in listing order, for reading.
func Rows() []Row { return table }

// Lookup resolves a registry name to its row. The row is the table's
// own: callers read it, and only a test swaps a field and restores it.
func Lookup(name string) (*Row, error) {
	for i := range table {
		if table[i].Name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("protocols: unknown protocol %q (known: %v)", name, Names())
}

// Names lists the registry names in sorted order.
func Names() []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].Name
	}
	sort.Strings(out)
	return out
}

// CheckEnvelope returns human-readable violations of the named protocol's
// envelope by one run's Q and honest message count msgs: empty when the
// run is within it or the protocol has no envelope.
func CheckEnvelope(name string, n, t, L, b, q, msgs int) []string {
	row, err := Lookup(name)
	if err != nil {
		return nil
	}
	env := row.Envelope
	var violations []string
	if env.MaxQ != nil {
		if maxQ := env.MaxQ(n, t, L, b); maxQ >= 0 && q > maxQ {
			violations = append(violations,
				fmt.Sprintf("envelope: Q %d exceeds bound %d", q, maxQ))
		}
	}
	if env.MaxMsgs != nil {
		if maxM := env.MaxMsgs(n, t, L, b); maxM >= 0 && msgs > maxM {
			violations = append(violations,
				fmt.Sprintf("envelope: msgs %d exceeds bound %d", msgs, maxM))
		}
	}
	return violations
}
