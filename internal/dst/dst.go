// Package dst is the deterministic-simulation test harness: FoundationDB
// style record/replay/shrink/search. It has no engine of its own. Package
// des is the one event loop, with two schedulers: des.Run draws delays
// from a policy, des.RunChoices asks a chooser which pending event is
// delivered next. dst owns what turns the second into a test harness —
// the replay file format and its lowering to a sim.Spec, the choosers,
// the event hash (a sim.Observer), the shrinker and the search — and one
// peer, context, fault and query-plane implementation serves both.
//
// Where des.Run samples asynchronous schedules through delay policies,
// dst makes every execution a first-class, serializable artifact:
//
//   - Record: any choice-driven run — random schedule search, the
//     Byzantine strategy search, or a promoted explore/fuzz finding — is
//     captured as a versioned replay file (*.dsr) holding the input seed,
//     the fault pattern (crash points or a Byzantine strategy program and
//     its coin seed), and every scheduling decision taken.
//   - Replay: re-executing a replay file is byte-deterministic — the same
//     sim.Result (output, Q, M, T) and the same event-sequence hash, every
//     time, on every machine. Replays double as regression tests: the
//     files under testdata/replays are re-executed by the normal suite.
//   - Shrink: delta debugging over the choice list, crash points, and the
//     N/L/T parameters reduces any failing run to a minimal replay that
//     still fails, plus a drtrace-compatible JSONL trace for reading.
//   - Search: a seeded enumeration of Byzantine strategy programs
//     (per-message mutations from internal/adversary composed into
//     programs) drives the committee/twocycle/multicycle protocols
//     looking for safety or liveness violations below their β thresholds.
//
// The runs are choice-driven — "which pending event is delivered next" —
// rather than delay-driven, because that is the representation delta
// debugging minimizes well: a minimal counterexample is a short list of
// small integers, not a float schedule. Scheduling choices beyond the
// recorded list default to FIFO (choice 0), so truncating a replay is
// always meaningful. Package explore enumerates small delivery-order
// trees the same way: RunPrefix runs one schedule from a choice prefix
// and reports the fan-outs the enumerator's odometer needs.
package dst

import (
	"fmt"
	"sort"

	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// Protocol is one registry entry: a named, serializable peer factory.
// Replay files reference protocols by Name, so entries must stay stable
// once a replay referencing them is committed.
type Protocol struct {
	Name string
	// Doc is a one-line description for CLI listings.
	Doc string
	// New builds the honest peer (or, for *-weak/-legacy entries, the
	// deliberately flawed variant under test).
	New func(sim.PeerID) sim.Peer
	// TestHook marks deliberately weakened variants: they exist to prove
	// the search and shrinker detect real violations, and are excluded
	// from "the protocols are safe" default target sets.
	TestHook bool
	// Randomized marks protocols that are correct w.h.p. rather than
	// deterministically (their violations need seed-aware triage).
	Randomized bool
}

var registry = map[string]Protocol{
	"naive":  {Name: "naive", Doc: "every peer queries the full input (Q = L)", New: naive.New},
	"crash1": {Name: "crash1", Doc: "Algorithm 1: one crash fault, Q = O(L/n)", New: crash1.New},
	"crash1-legacy": {Name: "crash1-legacy", TestHook: true,
		Doc: "Algorithm 1 with the PRE-FIX silent termination (deadlocks at n=4)", New: crash1.NewLegacy},
	"crashk":      {Name: "crashk", Doc: "Algorithm 2: t crash faults", New: crashk.New},
	"crashk-fast": {Name: "crashk-fast", Doc: "Algorithm 2 with the fast stage-3 rule", New: crashk.NewFast},
	"committee":   {Name: "committee", Doc: "Theorem 3.4 committees, Byzantine β < 1/2", New: committee.New},
	"committee-weak": {Name: "committee-weak", TestHook: true,
		Doc: "committee with acceptance threshold t instead of t+1 (unsafe)", New: committee.NewWeak},
	"twocycle": {Name: "twocycle", Doc: "Theorem 3.7 two-cycle randomized protocol", New: twocycle.New, Randomized: true},
	"twocycle-weak": {Name: "twocycle-weak", TestHook: true, Randomized: true,
		Doc: "two-cycle with frequency threshold forced to 1 (unsafe)", New: twocycle.NewWeak},
	"multicycle": {Name: "multicycle", Doc: "Theorem 3.12 multi-cycle randomized protocol", New: multicycle.New, Randomized: true},
	"multicycle-weak": {Name: "multicycle-weak", TestHook: true, Randomized: true,
		Doc: "multi-cycle with frequency threshold forced to 1 (unsafe)", New: multicycle.NewWeak},
}

// LookupProtocol resolves a registry name.
func LookupProtocol(name string) (Protocol, error) {
	p, ok := registry[name]
	if !ok {
		return Protocol{}, fmt.Errorf("dst: unknown protocol %q (known: %v)", name, ProtocolNames())
	}
	return p, nil
}

// ProtocolNames lists registry names in sorted order.
func ProtocolNames() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
