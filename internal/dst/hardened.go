package dst

import (
	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/harden"
	"repro/internal/protocols"
)

// The hardened re-check: every finding the strategy search produces is a
// reproducible way to make a protocol emit a wrong output or stall. The
// hardening supervisor (package harden) claims that under the same model
// parameters and the same adversary, such executions are detected and
// corrected by escalating toward naive. CheckHardened closes that loop:
// it re-runs a finding's scenario under harden.Run and reports whether
// the supervisor delivered a correct final output.
//
// The re-run uses the des runtime with a seeded asynchronous schedule,
// not the replay's recorded choice list — the supervisor spans several
// attempts with fresh per-attempt seeds, which a single recorded
// schedule cannot represent. The adversary (strategy program, coin seed,
// faulty set) and the model parameters carry over exactly, so the check
// answers "does hardening beat this adversary", not "this schedule".

// DefaultLadder returns the escalation ladder a hardened re-check uses
// for a registry protocol: the protocol itself, then naive (the
// any-β fallback). Weakened *-weak/-legacy variants keep their flawed
// first rung — that is the positive control: the supervisor must catch
// the flaw and still end correct.
func DefaultLadder(protocol string) []string {
	if protocol == "naive" {
		return []string{"naive"}
	}
	return []string{protocol, "naive"}
}

// CheckHardened re-runs the scenario of r under the hardening supervisor
// with the given escalation ladder (nil selects DefaultLadder). The
// error covers structural problems only; the supervisor's performance is
// the Outcome: its Detected and Corrected are the supervisor's verdict,
// and its Result.Correct, the ground truth of the final attempt (every
// honest peer output X), is what judges the supervisor, which never
// consults it to decide escalation.
func CheckHardened(r *Replay, ladder []string) (*harden.Outcome, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if ladder == nil {
		ladder = DefaultLadder(r.Protocol)
	}
	rungs := make([]harden.Rung, len(ladder))
	for i, name := range ladder {
		p, err := protocols.Lookup(name)
		if err != nil {
			return nil, err
		}
		rungs[i] = harden.Rung{Name: p.Name, NewPeer: p.New}
	}
	// Only the adversary and the model parameters carry over (see above):
	// a replay's source and mirror plans and its churn rejoins are timed
	// in chooser steps, which mean nothing on des's virtual clock.
	base := *r
	base.SourcePlan, base.MirrorPlan, base.Churn = "", "", nil
	spec, err := base.spec()
	if err != nil {
		return nil, err
	}
	spec.Delays = adversary.NewRandomUnit(r.Seed + 1000003)
	return harden.Run(harden.Config{Base: *spec, Rungs: rungs, Run: des.New().Run})
}
