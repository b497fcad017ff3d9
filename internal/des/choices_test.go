package des_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/sim"
)

// noDelays fails the test when the engine draws from it: under RunChoices
// the chooser is the whole scheduling adversary.
type noDelays struct{ t *testing.T }

func (d noDelays) MessageDelay(_, _ sim.PeerID, _ float64, _ int) float64 {
	d.t.Error("RunChoices drew a message delay")
	return 1
}

func (d noDelays) QueryDelay(sim.PeerID, float64) float64 {
	d.t.Error("RunChoices drew a query delay")
	return 1
}

func (d noDelays) StartDelay(sim.PeerID) float64 {
	d.t.Error("RunChoices drew a start delay")
	return 0
}

// TestRunChoicesIgnoresWorkers: Spec.Workers selects the speculative
// scheduler under Run only. Under a chooser the same cells run serially
// whatever it says — same Result, same decisions, same observer stream —
// and never consult the delay policy.
func TestRunChoicesIgnoresWorkers(t *testing.T) {
	for _, tc := range detCases() {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res   *sim.Result
				sched des.Schedule
				log   eventLog
			}
			runs := make([]run, 2)
			for i, workers := range []int{0, 4} {
				r := &runs[i]
				spec := tc.spec()
				spec.Workers = workers
				spec.Deadline = 0 // virtual time; RunChoices refuses it
				spec.Delays = noDelays{t}
				spec.Observer = &r.log
				rng := rand.New(rand.NewSource(99))
				var err error
				r.res, r.sched, err = des.RunChoices(spec, func(_, fanout int) int { return rng.Intn(fanout) })
				if err != nil {
					t.Fatal(err)
				}
				if r.sched.Panic != nil {
					t.Fatalf("workers=%d: peer panic: %v", workers, r.sched.Panic)
				}
			}
			a, b := runs[0], runs[1]
			if !a.res.Correct {
				t.Fatalf("run incorrect: %v", a.res)
			}
			if len(a.sched.Choices) == 0 || a.sched.MaxFanout < 2 {
				t.Fatalf("the chooser was never asked: %+v", a.sched)
			}
			if !reflect.DeepEqual(a.res, b.res) {
				t.Errorf("Result differs: workers=0 %v, workers=4 %v", a.res, b.res)
			}
			if !reflect.DeepEqual(a.sched, b.sched) {
				t.Errorf("schedule differs between worker counts")
			}
			if !reflect.DeepEqual(a.log.events, b.log.events) {
				t.Errorf("observer streams differ (%d vs %d events)", len(a.log.events), len(b.log.events))
			}
			// The clock is the delivered-event count.
			if last := a.log.events[len(a.log.events)-1].Time; last > float64(a.res.Events) {
				t.Errorf("event at time %g in a run of %d steps", last, a.res.Events)
			}
		})
	}
}

// TestRunChoicesRejectsDeadline: a virtual-time deadline has nothing to
// bound when time is a step count; silently ignoring it would be a run
// the caller did not ask for.
func TestRunChoicesRejectsDeadline(t *testing.T) {
	spec := detCases()[0].spec()
	spec.Deadline = 10
	if _, _, err := des.RunChoices(spec, func(int, int) int { return 0 }); err == nil {
		t.Fatal("RunChoices accepted a spec with a Deadline")
	}
}
