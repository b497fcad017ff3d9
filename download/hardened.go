package download

import (
	"fmt"

	"repro/internal/harden"
)

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
// detectors, every honest output is audited against the source, and a
// confirmed violation escalates to the next weaker-assumption protocol
// warm from the bits earlier attempts verified. Each attempt runs under
// opts.Deadline. The returned Report is the supervisor's account of the
// run (harden.Outcome.Result: the final attempt's Result, with Q,
// messages, time and events summed over the attempts, Q with the audit
// bits); its Hardening field is the supervisor's outcome, whose attempts
// keep their own results. The adversary keeps attacking the *original*
// protocol on every rung — escalation changes the honest code, not the
// faults.
func RunHardened(opts Options) (*Report, error) {
	return RunHardenedLadder(opts, DefaultLadder(opts.Protocol))
}

// RunHardenedLadder is RunHardened with an explicit ladder, for tools
// and tests that want to skip or reorder rungs. The first rung must be
// opts.Protocol.
func RunHardenedLadder(opts Options, ladder []Protocol) (*Report, error) {
	r, err := opts.validate()
	if err != nil {
		return nil, err
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
	out, err := harden.Run(harden.Config{Base: *spec, Rungs: rungs, Run: opts.runner()})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("download: trace: %w", err)
	}
	rep := buildReport(&out.Result)
	rep.Hardening = out
	return rep, nil
}
