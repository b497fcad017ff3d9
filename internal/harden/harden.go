// Package harden is a supervisor layer that turns silent wrong-output
// failures into detect → audit → escalate → re-run. Every protocol in
// this repository is only correct under its assumed fault bound; run one
// outside its regime (the operator's β estimate was wrong) and honest
// peers output a wrong array without any error. The companion full
// version of the paper shows that for β ≥ 1/2 falling back toward the
// naive protocol is unavoidable — so the supervisor's job is to notice
// that an execution has gone bad and walk down exactly that ladder,
// paying only for what is still unverified.
//
// Three mechanisms (see docs/HARDENING.md):
//
//   - Violation detectors: an Observer-based evidence collector
//     (equivocation claims, starvation attribution — see Collector) plus
//     the runtime's own deadlock/event-cap/deadline signals.
//   - A budgeted source audit: each honest output is spot-checked on k
//     seeded-random indices against the source before the attempt is
//     declared clean. Audit bits are charged into Q. Under an
//     untrusted-mirror plan it is the commitment audit instead: one
//     root fetch verifies a whole clean output, and a wrong one is
//     localized by a logarithmic hash descent, so a forgery can never
//     slip through a sampling gap.
//   - An escalation ladder with warm start: on any confirmed violation
//     the run restarts under the next, weaker-assumption rung, handing
//     each peer's source-verified bits to the runtime (sim.Spec.Warm),
//     whose query plane serves them free, so verified indices are never
//     re-queried.
//
// The supervisor decides from legitimate signals only — evidence,
// audits, and runtime liveness flags. It never compares outputs against
// the ground-truth input wholesale (that would be a simulation cheat);
// sim.Result.Correct is reported to callers but not consulted for
// escalation decisions.
package harden

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bitarray"
	"repro/internal/merkle"
	"repro/internal/sim"
)

// DefaultAuditBits is the per-peer audit budget k: a forged output that
// differs from X on a ρ fraction of bits escapes one peer's audit with
// probability (1−ρ)^k; 16 bits push even a single-bit-flip forgery on a
// kilobit input below 2% per peer, and any densely-wrong output (like a
// forged protocol segment) below 2^-10.
const DefaultAuditBits = 16

// ViolationKind names a detector.
type ViolationKind string

// The detector kinds.
const (
	// ViolationAudit: an audited output bit disagreed with the source.
	ViolationAudit ViolationKind = "audit-mismatch"
	// ViolationNoOutput: an honest peer terminated without an output.
	ViolationNoOutput ViolationKind = "no-output"
	// ViolationEquivocation: more distinct peers produced equivocation
	// evidence than the fault bound t admits.
	ViolationEquivocation ViolationKind = "equivocation-overflow"
	// ViolationDeadlock: the runtime found live honest peers with no
	// deliverable events (quorum starvation in an asynchronous run).
	ViolationDeadlock ViolationKind = "deadlock"
	// ViolationEventCap: the event cap cut the run off.
	ViolationEventCap ViolationKind = "event-cap"
	// ViolationDeadline: the attempt deadline expired with honest peers
	// still running.
	ViolationDeadline ViolationKind = "deadline"
	// ViolationStarvation attributes a cut-off run to specific stalled
	// peers and phases (always accompanies one of the liveness kinds).
	ViolationStarvation ViolationKind = "starvation"
)

// Violation is one confirmed detector finding.
type Violation struct {
	Kind   ViolationKind
	Detail string
}

func (v Violation) String() string { return string(v.Kind) + ": " + v.Detail }

// Rung is one step of the escalation ladder: a protocol name and its
// honest-peer factory. Ladders order rungs by weakening assumptions
// (e.g. twocycle → committee → naive).
type Rung struct {
	Name    string
	NewPeer func(id sim.PeerID) sim.Peer
}

// Config describes one hardened execution.
type Config struct {
	// Base carries the model parameters, delay policy, fault pattern, and
	// observability sinks. Its NewPeer, Label, Observer and Warm are
	// per-rung concerns and are overwritten each attempt (a user-supplied
	// Observer still receives every event, chained behind the evidence
	// collector). Its Deadline, when positive, bounds each attempt: an
	// expiry is a confirmed liveness violation, and a peer that sits in
	// one phase with no progress for longer is named by starvation
	// attribution. Its Mirrors, when enabled, switch the source audit to
	// the commitment audit at the plan's effective leaf size.
	Base sim.Spec
	// Rungs is the escalation ladder, strongest assumption first.
	Rungs []Rung
	// Run executes one attempt's spec on a runtime. Required. An error
	// beside a Result whose DeadlineHit is set, as a socket run past its
	// timeout returns, is the attempt's deadline violation; any other
	// error is a configuration error.
	Run func(*sim.Spec) (*sim.Result, error)
}

// Attempt is the outcome of one rung's execution.
type Attempt struct {
	// Rung is the rung name (also the metric "protocol" label of the
	// attempt's per-peer series).
	Rung string
	// Result is the runtime's report for this attempt; its WarmHitBits
	// are the query bits served from the bits earlier rungs verified.
	Result *sim.Result
	// Violations lists the confirmed detector findings; empty means the
	// attempt was declared clean.
	Violations []Violation
	// Equivocators counts distinct peers with equivocation evidence.
	Equivocators int
	// Starved attributes stalled peers when the attempt was cut off.
	Starved []Starvation
	// AuditedPeers and AuditBits summarize the attempt's source audit;
	// AuditBits is the total charged across peers.
	AuditedPeers int
	AuditBits    int
	// VerifiedBits is the per-peer count of source-verified bits after
	// this attempt (including its audit) — the warm-start state the next
	// rung inherits.
	VerifiedBits []int
}

// Outcome aggregates a hardened execution.
type Outcome struct {
	// Attempts holds one entry per rung actually run, in ladder order.
	Attempts []*Attempt
	// Result is the hardened run's account: the final attempt's Result,
	// with Msgs, MsgBits, Time, Events and each peer's QueryBits,
	// MsgsSent and MsgBitsSent summed over the attempts. Its QueryBits
	// include the audit bits (warm hits are free), and its Q is their
	// max over honest peers, the hardened run's query complexity,
	// directly comparable to an unhardened run's Q. Each attempt's own
	// Result keeps its own figures.
	Result sim.Result
	// Detected reports that at least one attempt had a confirmed
	// violation.
	Detected bool
	// Corrected reports that a violation was detected and the final
	// attempt was declared clean.
	Corrected bool
	// AuditBits and WarmHitBits total the attempts' audit bits and
	// Result.WarmHitBits.
	AuditBits   int
	WarmHitBits int
}

// Escalations returns the rung names in the order they ran.
func (o *Outcome) Escalations() []string {
	out := make([]string, len(o.Attempts))
	for i, a := range o.Attempts {
		out[i] = a.Rung
	}
	return out
}

// Run executes the escalation ladder: each rung runs under the evidence
// collector and warm from the bits earlier rungs verified, is audited
// against the source, and either ends the ladder (clean) or escalates to
// the next rung. The error return covers configuration problems only;
// protocol-level outcomes — including an exhausted ladder — live in the
// Outcome, whose Result is the run's account summed over its attempts.
func Run(cfg Config) (*Outcome, error) {
	if len(cfg.Rungs) == 0 {
		return nil, errors.New("harden: empty escalation ladder")
	}
	if cfg.Run == nil {
		return nil, errors.New("harden: no runner")
	}
	for i, r := range cfg.Rungs {
		if r.Name == "" || r.NewPeer == nil {
			return nil, fmt.Errorf("harden: rung %d missing name or factory", i)
		}
	}
	base := cfg.Base
	// Pin the input before the first attempt: attempt seeds vary (a
	// re-run of a randomized protocol must not replay the exact unlucky
	// coin flips), and an unpinned input would vary with them.
	base.Config.Input = base.Config.ResolveInput()
	input := base.Config.Input
	n := base.Config.N
	if n <= 0 {
		return nil, errors.New("harden: config has no peers")
	}

	met := newMetrics(base.Metrics)
	// verified holds each peer's source-verified bits: its rungs' query
	// replies, which the runtime learns into it, and its audits.
	verified := make([]*bitarray.Tracker, n)
	for i := range verified {
		verified[i] = bitarray.NewTracker(base.Config.L)
	}

	// The commitment tree over the pinned input doubles as the audit's
	// source side: roots and interior hashes fetched from it are what a
	// real deployment would read from the authoritative source.
	var srcTree *merkle.Tree
	if base.Mirrors.Enabled() {
		srcTree = merkle.Build(input, base.Mirrors.EffectiveLeafBits())
	}

	out := &Outcome{}
	for ai, rung := range cfg.Rungs {
		spec := base
		spec.Label = rung.Name
		spec.Config.Seed = base.Config.Seed + int64(ai)*0x9e3779b9
		spec.NewPeer = rung.NewPeer
		spec.Warm = verified

		col := NewCollector(n, base.Deadline, base.Observer)
		spec.Observer = col

		res, err := cfg.Run(&spec)
		if err != nil && (res == nil || !res.DeadlineHit) {
			return nil, fmt.Errorf("harden: rung %s: %w", rung.Name, err)
		}
		met.attempts.With(rung.Name).Inc()

		att := &Attempt{Rung: rung.Name, Result: res}
		addAttempt(&out.Result, res)
		for i := range res.PerPeer {
			met.warmHits.With(rung.Name, itoa(i)).Add(int64(res.PerPeer[i].WarmHitBits))
		}
		out.WarmHitBits += res.WarmHitBits

		// Detectors: evidence first, then the runtime's liveness flags.
		if eq := col.Equivocators(); len(eq) > 0 {
			att.Equivocators = len(eq)
			met.equivocates.With(rung.Name).Add(int64(len(eq)))
			if len(eq) > base.Config.T {
				att.Violations = append(att.Violations, Violation{
					Kind: ViolationEquivocation,
					Detail: fmt.Sprintf("%d distinct equivocating peers exceed fault bound t=%d (first: %s)",
						len(eq), base.Config.T, col.Evidence()[0]),
				})
			}
		}
		cutOff := false
		if res.Deadlocked {
			cutOff = true
			att.Violations = append(att.Violations, Violation{
				Kind:   ViolationDeadlock,
				Detail: "all live honest peers blocked with no deliverable events",
			})
		}
		if res.EventCapHit {
			cutOff = true
			att.Violations = append(att.Violations, Violation{
				Kind:   ViolationEventCap,
				Detail: fmt.Sprintf("event cap cut the run off after %d events", res.Events),
			})
		}
		if res.DeadlineHit {
			cutOff = true
			att.Violations = append(att.Violations, Violation{
				Kind:   ViolationDeadline,
				Detail: fmt.Sprintf("attempt deadline %.1f expired with honest peers running", base.Deadline),
			})
		}
		if cutOff {
			att.Starved = col.Starved()
			for _, s := range att.Starved {
				att.Violations = append(att.Violations, Violation{
					Kind:   ViolationStarvation,
					Detail: s.String(),
				})
			}
		}

		// Budgeted source audit. It runs even after a cut-off: peers that
		// did terminate get checked, and every audited bit is verified for
		// the next rung either way. The Merkle mode replaces the k
		// spot-checks with one root fetch plus a log-proof descent on
		// mismatch.
		var aud *AuditReport
		if srcTree != nil {
			aud = runMerkleAudit(res, srcTree, input, verified)
			met.merkleAudits.With(rung.Name).Add(int64(aud.Peers))
		} else {
			aud = runAudit(res, input, DefaultAuditBits, spec.Config.Seed, verified)
		}
		att.AuditedPeers, att.AuditBits = aud.Peers, aud.Bits
		out.AuditBits += aud.Bits
		met.auditChecks.With(rung.Name).Add(int64(aud.Peers))
		for i, b := range aud.PerPeerBits {
			out.Result.PerPeer[i].QueryBits += b
			met.auditBits.With(rung.Name, itoa(i)).Add(int64(b))
		}
		for _, mm := range aud.Mismatches {
			met.mismatches.With(rung.Name).Inc()
			if mm.Index < 0 {
				att.Violations = append(att.Violations, Violation{
					Kind:   ViolationNoOutput,
					Detail: fmt.Sprintf("peer %d terminated without an output", mm.Peer),
				})
			} else {
				att.Violations = append(att.Violations, Violation{
					Kind:   ViolationAudit,
					Detail: fmt.Sprintf("peer %d output wrong at audited bit %d", mm.Peer, mm.Index),
				})
			}
		}

		att.VerifiedBits = make([]int, n)
		for i, v := range verified {
			att.VerifiedBits[i] = v.Len() - v.UnknownCount()
		}
		for _, v := range att.Violations {
			met.violations.With(rung.Name, string(v.Kind)).Inc()
		}

		out.Attempts = append(out.Attempts, att)
		if len(att.Violations) == 0 {
			out.Corrected = out.Detected
			break
		}
		out.Detected = true
		if ai+1 < len(cfg.Rungs) {
			met.escalations.With(rung.Name, cfg.Rungs[ai+1].Name).Inc()
		}
	}

	out.Result.Q = 0
	for _, ps := range out.Result.PerPeer {
		if ps.Honest && ps.QueryBits > out.Result.Q {
			out.Result.Q = ps.QueryBits
		}
	}
	return out, nil
}

// addAttempt folds the attempt's res into acc, the account of the
// attempts before it: acc becomes res, on its own copy of PerPeer, with
// acc's Msgs, MsgBits, Time, Events and per-peer QueryBits, MsgsSent and
// MsgBitsSent added.
func addAttempt(acc, res *sim.Result) {
	prev := *acc
	*acc = *res
	acc.PerPeer = slices.Clone(res.PerPeer)
	acc.Msgs += prev.Msgs
	acc.MsgBits += prev.MsgBits
	acc.Time += prev.Time
	acc.Events += prev.Events
	for i, p := range prev.PerPeer {
		ps := &acc.PerPeer[i]
		ps.QueryBits += p.QueryBits
		ps.MsgsSent += p.MsgsSent
		ps.MsgBitsSent += p.MsgBitsSent
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
