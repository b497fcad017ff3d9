package dst

import (
	"repro/internal/adversary"
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

// HardenedCheck is the verdict of one hardened re-run.
type HardenedCheck struct {
	// Outcome is the supervisor's full account (attempts, violations,
	// escalations, Q accounting).
	Outcome *harden.Outcome
	// Detected and Corrected mirror the supervisor's verdict.
	Detected  bool
	Corrected bool
	// FinalCorrect is the ground-truth check of the final attempt: every
	// honest peer output X exactly. The supervisor never consults this to
	// decide escalation; the harness consults it to judge the supervisor.
	FinalCorrect bool
}

// Ok reports that the hardened run ended with every honest peer correct.
func (c *HardenedCheck) Ok() bool { return c.FinalCorrect }

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
// the HardenedCheck.
func CheckHardened(r *Replay, ladder []string) (*HardenedCheck, error) {
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
	out, err := harden.Run(harden.Config{Base: *spec, Rungs: rungs})
	if err != nil {
		return nil, err
	}
	check := &HardenedCheck{
		Outcome:   out,
		Detected:  out.Detected,
		Corrected: out.Corrected,
	}
	check.FinalCorrect = true
	for i := range out.Final.PerPeer {
		st := &out.Final.PerPeer[i]
		if st.Honest && !st.OutputCorrect {
			check.FinalCorrect = false
			break
		}
	}
	return check, nil
}
