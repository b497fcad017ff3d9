package harden

import "repro/internal/obs"

// metrics holds the supervisor's obs handles. Everything is nil-safe: a
// nil registry yields nil vecs whose children are no-op counters, so the
// disabled path costs nothing (see package obs).
type metrics struct {
	attempts     *obs.CounterVec // rung
	violations   *obs.CounterVec // rung, kind
	escalations  *obs.CounterVec // from, to
	auditBits    *obs.CounterVec // rung, peer
	auditChecks  *obs.CounterVec // rung
	mismatches   *obs.CounterVec // rung
	warmHits     *obs.CounterVec // rung, peer
	equivocates  *obs.CounterVec // rung
	merkleAudits *obs.CounterVec // rung
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		attempts: r.CounterVec("dr_harden_attempts_total",
			"Hardened execution attempts, by escalation rung.", "rung"),
		violations: r.CounterVec("dr_harden_violations_total",
			"Confirmed assumption violations, by rung and detector kind.", "rung", "kind"),
		escalations: r.CounterVec("dr_harden_escalations_total",
			"Escalations taken after a confirmed violation.", "from", "to"),
		auditBits: r.CounterVec("dr_harden_audit_bits_total",
			"Source-audit bits charged into Q, by rung and peer.", "rung", "peer"),
		auditChecks: r.CounterVec("dr_harden_audited_peers_total",
			"Peer outputs spot-checked against the source.", "rung"),
		mismatches: r.CounterVec("dr_harden_audit_mismatches_total",
			"Audited output bits that disagreed with the source.", "rung"),
		warmHits: r.CounterVec("dr_harden_warm_hit_bits_total",
			"Query bits served from bits earlier rungs verified instead of the source.", "rung", "peer"),
		equivocates: r.CounterVec("dr_harden_equivocating_peers_total",
			"Distinct peers with equivocation evidence.", "rung"),
		merkleAudits: r.CounterVec("dr_harden_merkle_audits_total",
			"Peer outputs audited against the Merkle commitment root.", "rung"),
	}
}
