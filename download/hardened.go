package download

import (
	"fmt"

	"repro/internal/harden"
)

// HardenedAttempt summarizes one rung of a hardened execution.
type HardenedAttempt struct {
	// Protocol is the rung that ran.
	Protocol Protocol
	// Violations are the confirmed detector findings ("kind: detail");
	// empty means the attempt was declared clean.
	Violations []string
	// Equivocators counts distinct peers caught equivocating.
	Equivocators int
	// AuditedPeers and AuditBits summarize the rung's source audit.
	AuditedPeers int
	AuditBits    int
	// WarmHitBits counts query bits served from bits earlier rungs
	// verified instead of from the source.
	WarmHitBits int
	// VerifiedBits is the per-peer count of source-verified bits after
	// this attempt — the warm-start state the next rung inherits.
	VerifiedBits []int
	// Correct is the runtime's ground-truth verdict for this attempt. It
	// is reported for analysis only; escalation decisions never consult
	// it (see package harden).
	Correct bool
}

// HardeningReport is attached to Report by RunHardened.
type HardeningReport struct {
	// Detected reports that at least one attempt had a confirmed
	// assumption violation.
	Detected bool
	// Corrected reports that a violation was detected and the final
	// attempt was declared clean.
	Corrected bool
	// Ladder is the full escalation ladder; Escalations the rungs that
	// actually ran, in order.
	Ladder      []Protocol
	Escalations []Protocol
	// Attempts holds one entry per rung run.
	Attempts []HardenedAttempt
	// AuditBits and WarmHitBits total the per-attempt figures. Audit
	// bits are already accounted into Report.Q; warm hits are the bits
	// escalated attempts did NOT pay thanks to warm start.
	AuditBits   int
	WarmHitBits int
}

// DefaultLadder is the escalation ladder of p's row in the protocol
// table (internal/protocols): it starts at p, weakens assumptions rung by
// rung and ends at naive, correct for any β < 1. An unknown protocol
// gets naive alone.
func DefaultLadder(p Protocol) []Protocol {
	row, err := p.row()
	if err != nil {
		return []Protocol{Naive}
	}
	ladder := make([]Protocol, len(row.Ladder))
	for i, name := range row.Ladder {
		ladder[i] = Protocol(name)
	}
	return ladder
}

// RunHardened executes opts under the hardening supervisor with the
// protocol's default escalation ladder: the run is watched by violation
// detectors, every honest output is spot-checked against the source, and
// a confirmed violation escalates to the next weaker-assumption protocol
// warm from the bits earlier attempts verified. The returned
// Report's Q and per-peer query bits are cumulative across attempts
// (audit bits included) and its Hardening field records what happened.
// The adversary keeps attacking the *original* protocol on every rung —
// escalation changes the honest code, not the faults.
func RunHardened(opts Options, pol harden.Policy) (*Report, error) {
	return RunHardenedLadder(opts, pol, DefaultLadder(opts.Protocol))
}

// RunHardenedLadder is RunHardened with an explicit ladder, for tools
// and tests that want to skip or reorder rungs. The first rung must be
// opts.Protocol.
func RunHardenedLadder(opts Options, pol harden.Policy, ladder []Protocol) (*Report, error) {
	r, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if opts.TCP {
		return nil, &UnsupportedError{Runtime: "tcp", Feature: "hardening",
			Reason: "the supervisor re-runs and audits on a simulated runtime; use des"}
	}
	if len(ladder) == 0 || ladder[0] != opts.Protocol {
		return nil, fmt.Errorf("download: ladder must start at %q", opts.Protocol)
	}
	rungs := make([]harden.Rung, len(ladder))
	for i, p := range ladder {
		factory, err := p.Factory()
		if err != nil {
			return nil, err
		}
		rungs[i] = harden.Rung{Name: string(p), NewPeer: factory}
	}
	spec := buildSpec(opts, r)
	var flush func() error
	spec.Observer, flush = opts.stream()
	if pol.AttemptDeadline == 0 {
		pol.AttemptDeadline = opts.Deadline
	}
	out, err := harden.Run(harden.Config{
		Base:   *spec,
		Rungs:  rungs,
		Policy: pol,
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("download: trace: %w", err)
	}
	rep := buildReport(out.Final)
	rep.Q = out.Q
	var sum, honest int
	for i := range rep.PerPeer {
		rep.PerPeer[i].QueryBits = out.PerPeerQ[i]
		if rep.PerPeer[i].Honest {
			sum += out.PerPeerQ[i]
			honest++
		}
	}
	if honest > 0 {
		rep.AvgQ = float64(sum) / float64(honest)
	}
	hr := &HardeningReport{
		Detected:    out.Detected,
		Corrected:   out.Corrected,
		Ladder:      append([]Protocol(nil), ladder...),
		AuditBits:   out.AuditBits,
		WarmHitBits: out.WarmHitBits,
	}
	for _, att := range out.Attempts {
		ha := HardenedAttempt{
			Protocol:     Protocol(att.Rung),
			Equivocators: att.Equivocators,
			AuditedPeers: att.AuditedPeers,
			AuditBits:    att.AuditBits,
			WarmHitBits:  att.Result.WarmHitBits,
			VerifiedBits: append([]int(nil), att.VerifiedBits...),
			Correct:      att.Result.Correct,
		}
		for _, v := range att.Violations {
			ha.Violations = append(ha.Violations, v.String())
		}
		hr.Escalations = append(hr.Escalations, ha.Protocol)
		hr.Attempts = append(hr.Attempts, ha)
	}
	rep.Hardening = hr
	return rep, nil
}
