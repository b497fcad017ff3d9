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
//     declared clean. Audit bits are charged into Q. Policy.MerkleAudit
//     (automatic under an untrusted-mirror plan) upgrades this to the
//     commitment audit: one root fetch verifies a whole clean output,
//     and a wrong one is localized by a logarithmic hash descent, so a
//     forgery can never slip through a sampling gap.
//   - An escalation ladder with warm start: on any confirmed violation
//     the run restarts under the next, weaker-assumption rung, carrying
//     a per-peer cache of source-verified bits so verified indices are
//     never re-queried.
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
	"strconv"

	"repro/internal/des"
	"repro/internal/intset"
	"repro/internal/merkle"
	"repro/internal/sim"
)

// DefaultAuditBits is the per-peer audit budget k when Policy.AuditBits
// is zero: a forged output that differs from X on a ρ fraction of bits
// escapes one peer's audit with probability (1−ρ)^k; 16 bits push even a
// single-bit-flip forgery on a kilobit input below 2% per peer, and any
// densely-wrong output (like a forged protocol segment) below 2^-10.
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

// Policy tunes the supervisor.
type Policy struct {
	// AuditBits is the per-peer source-audit budget k; 0 selects
	// DefaultAuditBits, negative disables the audit (both modes).
	AuditBits int
	// MerkleAudit switches the source audit from k spot-checks to the
	// commitment audit (see runMerkleAudit): one root fetch verifies a
	// whole clean output, and a wrong one is localized by a logarithmic
	// hash descent — a forgery can never slip through a sampling gap.
	// The mode also engages automatically when the base spec runs an
	// untrusted-mirror plan (the commitment already exists there).
	MerkleAudit bool
	// MerkleLeafBits sets the audit tree's leaf granularity; 0 inherits
	// the mirror plan's effective granularity (source.DefaultLeafBits
	// when no plan is set).
	MerkleLeafBits int
	// AuditSeed decorrelates audit index choices from the execution seed
	// (it is mixed with the spec seed and attempt number).
	AuditSeed int64
	// AttemptDeadline, when positive, bounds each attempt in virtual time
	// units via sim.Spec.Deadline. An expiry is a confirmed liveness
	// violation.
	AttemptDeadline float64
	// PhaseDeadline bounds how long a peer may sit in one phase with no
	// progress before starvation attribution names it; 0 inherits
	// AttemptDeadline.
	PhaseDeadline float64
	// MaxAttempts caps ladder descent; 0 means every rung may run.
	MaxAttempts int
	// DisableWarmStart runs every attempt cold (escalations re-query
	// verified bits). Exists for A/B accounting; leave it off.
	DisableWarmStart bool
}

// Config describes one hardened execution.
type Config struct {
	// Base carries the model parameters, delay policy, fault pattern, and
	// observability sinks. Its NewPeer, Label, Observer, and Deadline are
	// per-rung concerns and are overwritten each attempt (a user-supplied
	// Observer still receives every event, chained behind the evidence
	// collector).
	Base sim.Spec
	// Rungs is the escalation ladder, strongest assumption first.
	Rungs []Rung
	// Policy tunes detectors, audit, and ladder descent.
	Policy Policy
}

// Attempt is the outcome of one rung's execution.
type Attempt struct {
	// Rung is the rung name (also the metric "protocol" label of the
	// attempt's per-peer series).
	Rung string
	// Result is the runtime's report for this attempt.
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
	// WarmHitBits is the total query bits served from the warm cache
	// instead of the source, across peers.
	WarmHitBits int
	// VerifiedBits is the per-peer count of source-verified bits after
	// this attempt (including its audit) — the warm-start state the next
	// rung inherits.
	VerifiedBits []int
}

// Outcome aggregates a hardened execution.
type Outcome struct {
	// Attempts holds one entry per rung actually run, in ladder order.
	Attempts []*Attempt
	// Final is the last attempt's Result.
	Final *sim.Result
	// Detected reports that at least one attempt had a confirmed
	// violation.
	Detected bool
	// Corrected reports that a violation was detected and the final
	// attempt was declared clean.
	Corrected bool
	// PerPeerQ is each peer's cumulative source-bit charge across all
	// attempts: protocol queries plus audit bits (warm-cache hits are
	// free). Q is its max over honest peers — the hardened run's query
	// complexity, directly comparable to an unhardened Report.Q.
	PerPeerQ []int
	Q        int
	// AuditBits and WarmHitBits total the per-attempt figures.
	AuditBits   int
	WarmHitBits int
	// Verified is each peer's final set of source-verified indices, as
	// coalesced ranges.
	Verified []intset.Set
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
// collector and (unless disabled) the warm-start wrapper, is audited
// against the source, and either ends the ladder (clean) or escalates to
// the next rung. The error return covers configuration problems only;
// protocol-level outcomes — including an exhausted ladder — live in the
// Outcome.
func Run(cfg Config) (*Outcome, error) {
	if len(cfg.Rungs) == 0 {
		return nil, errors.New("harden: empty escalation ladder")
	}
	for i, r := range cfg.Rungs {
		if r.Name == "" || r.NewPeer == nil {
			return nil, fmt.Errorf("harden: rung %d missing name or factory", i)
		}
	}
	pol := cfg.Policy
	auditK := pol.AuditBits
	if auditK == 0 {
		auditK = DefaultAuditBits
	}
	maxAttempts := pol.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(cfg.Rungs) {
		maxAttempts = len(cfg.Rungs)
	}
	phaseDeadline := pol.PhaseDeadline
	if phaseDeadline <= 0 {
		phaseDeadline = pol.AttemptDeadline
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
	caches := make([]*Cache, n)
	for i := range caches {
		caches[i] = NewCache(base.Config.L)
	}

	// The commitment tree over the pinned input doubles as the audit's
	// source side: roots and interior hashes fetched from it are what a
	// real deployment would read from the authoritative source.
	var srcTree *merkle.Tree
	if pol.MerkleAudit || base.Mirrors.Enabled() {
		leafBits := pol.MerkleLeafBits
		if leafBits == 0 {
			leafBits = base.Mirrors.EffectiveLeafBits()
		}
		srcTree = merkle.Build(input, leafBits)
	}

	out := &Outcome{PerPeerQ: make([]int, n)}
	for ai := 0; ai < maxAttempts; ai++ {
		rung := cfg.Rungs[ai]
		spec := base
		spec.Label = rung.Name
		spec.Deadline = pol.AttemptDeadline
		spec.Config.Seed = base.Config.Seed + int64(ai)*0x9e3779b9

		stats := make([]*warmStats, n)
		for i := range stats {
			stats[i] = &warmStats{}
		}
		inner := rung.NewPeer
		if pol.DisableWarmStart {
			spec.NewPeer = inner
		} else {
			spec.NewPeer = func(id sim.PeerID) sim.Peer {
				return &warmPeer{
					inner:   inner(id),
					cache:   caches[id],
					stats:   stats[id],
					pending: make(map[int][]cachedHit),
				}
			}
		}

		col := NewCollector(n, phaseDeadline, base.Observer)
		spec.Observer = col

		res, err := des.New().Run(&spec)
		if err != nil {
			return nil, fmt.Errorf("harden: rung %s: %w", rung.Name, err)
		}
		met.attempts.With(rung.Name).Inc()

		att := &Attempt{Rung: rung.Name, Result: res}
		for i := range res.PerPeer {
			out.PerPeerQ[i] += res.PerPeer[i].QueryBits
		}
		for i, ws := range stats {
			att.WarmHitBits += ws.hitBits
			met.warmHits.With(rung.Name, itoa(i)).Add(int64(ws.hitBits))
		}
		out.WarmHitBits += att.WarmHitBits

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
				Detail: fmt.Sprintf("attempt deadline %.1f expired with honest peers running", pol.AttemptDeadline),
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
		// did terminate get checked, and every audited bit enters the warm
		// cache either way. The Merkle mode replaces the k spot-checks
		// with one root fetch plus a log-proof descent on mismatch.
		var aud *AuditReport
		if srcTree != nil && auditK > 0 {
			aud = runMerkleAudit(res, srcTree, input, caches)
			met.merkleAudits.With(rung.Name).Add(int64(aud.Peers))
		} else {
			aud = runAudit(res, input, auditK, pol.AuditSeed^spec.Config.Seed, caches)
		}
		att.AuditedPeers, att.AuditBits = aud.Peers, aud.Bits
		out.AuditBits += aud.Bits
		met.auditChecks.With(rung.Name).Add(int64(aud.Peers))
		for i, b := range aud.PerPeerBits {
			out.PerPeerQ[i] += b
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
		for i, c := range caches {
			att.VerifiedBits[i] = c.Count()
		}
		for _, v := range att.Violations {
			met.violations.With(rung.Name, string(v.Kind)).Inc()
		}

		out.Attempts = append(out.Attempts, att)
		out.Final = res
		if len(att.Violations) == 0 {
			out.Corrected = out.Detected
			break
		}
		out.Detected = true
		if ai+1 < maxAttempts {
			met.escalations.With(rung.Name, cfg.Rungs[ai+1].Name).Inc()
		}
	}

	for i := range out.PerPeerQ {
		if out.Final.PerPeer[i].Honest && out.PerPeerQ[i] > out.Q {
			out.Q = out.PerPeerQ[i]
		}
	}
	out.Verified = make([]intset.Set, n)
	for i, c := range caches {
		out.Verified[i] = c.Verified()
	}
	return out, nil
}

func itoa(i int) string { return strconv.Itoa(i) }
