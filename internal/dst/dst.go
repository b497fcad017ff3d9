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
//     Byzantine strategy search, or an Explore/fuzz witness — is
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
// always meaningful. Explore, the exhaustive mode, enumerates small
// delivery-order trees the same way: every choice prefix up to a depth,
// each as one run of the replay's configuration.
package dst
