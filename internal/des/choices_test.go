package des_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
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

// TestDesIgnoresWorkers: Spec.Workers is a live-runtime knob. Both des
// entry points run the one serial loop whatever it says — same Result,
// same observer stream, and under a chooser the same decisions, with the
// delay policy never consulted.
func TestDesIgnoresWorkers(t *testing.T) {
	for _, tc := range detCases() {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res   *sim.Result
				sched des.Schedule
				log   eventLog
			}
			var timed, chosen [2]run
			for i, workers := range []int{0, 4} {
				r := &timed[i]
				spec := tc.spec()
				spec.Workers = workers
				spec.Observer = &r.log
				var err error
				if r.res, err = des.New().Run(spec); err != nil {
					t.Fatal(err)
				}

				r = &chosen[i]
				spec = tc.spec()
				spec.Workers = workers
				spec.Deadline = 0 // virtual time; RunChoices refuses it
				spec.Delays = noDelays{t}
				spec.Observer = &r.log
				rng := rand.New(rand.NewSource(99))
				r.res, r.sched, err = des.RunChoices(spec, func(_, fanout int) int { return rng.Intn(fanout) })
				if err != nil {
					t.Fatal(err)
				}
				if r.sched.Panic != nil {
					t.Fatalf("workers=%d: peer panic: %v", workers, r.sched.Panic)
				}
			}
			if res := timed[0].res; !res.Correct && !res.DeadlineHit {
				t.Fatalf("Run incorrect: %v", res.Failures)
			}
			ch := chosen[0]
			if !ch.res.Correct {
				t.Fatalf("RunChoices incorrect: %v", ch.res)
			}
			if len(ch.sched.Choices) == 0 || ch.sched.MaxFanout < 2 {
				t.Fatalf("the chooser was never asked: %+v", ch.sched)
			}
			// The clock is the delivered-event count.
			if last := ch.log.events[len(ch.log.events)-1].Time; last > float64(ch.res.Events) {
				t.Errorf("event at time %g in a run of %d steps", last, ch.res.Events)
			}
			for name, pair := range map[string][2]run{"Run": timed, "RunChoices": chosen} {
				a, b := pair[0], pair[1]
				if !reflect.DeepEqual(a.res, b.res) {
					t.Errorf("%s: Result differs: workers=0 %v, workers=4 %v", name, a.res, b.res)
				}
				if !reflect.DeepEqual(a.sched, b.sched) {
					t.Errorf("%s: schedule differs between worker counts", name)
				}
				if !reflect.DeepEqual(a.log.events, b.log.events) {
					t.Errorf("%s: observer streams differ (%d vs %d events)", name, len(a.log.events), len(b.log.events))
				}
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

// eventLog records the observer stream so tests can compare not just the
// final Result but the exact order of every observable event.
type eventLog struct {
	events []sim.ObservedEvent
}

func (l *eventLog) OnEvent(ev sim.ObservedEvent) {
	ev.Msg = nil // payload identity is covered by MsgType/Bits
	l.events = append(l.events, ev)
}

// specCase builds a fresh spec per run; specs hold mutable runtime state
// (peers), so each run needs its own.
type specCase struct {
	name string
	spec func() *sim.Spec
}

func detCases() []specCase {
	base := func(newPeer func(sim.PeerID) sim.Peer, n, t, l int, seed int64) *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: n, T: t, L: l, MsgBits: 64, Seed: seed},
			NewPeer: newPeer,
			Delays:  adversary.NewRandomUnit(seed + 1000003),
		}
	}
	return []specCase{
		{"naive", func() *sim.Spec { return base(naive.New, 8, 0, 256, 1) }},
		{"crash1", func() *sim.Spec { return base(crash1.New, 9, 1, 300, 2) }},
		{"crashk", func() *sim.Spec { return base(crashk.New, 12, 3, 512, 3) }},
		{"crashk-fast", func() *sim.Spec { return base(crashk.NewFast, 12, 5, 400, 4) }},
		{"committee", func() *sim.Spec { return base(committee.New, 11, 2, 128, 5) }},
		{"crashk/crash-faults", func() *sim.Spec {
			s := base(crashk.New, 10, 3, 256, 6)
			faulty := adversary.SpreadFaulty(10, 3)
			s.Faults = sim.FaultSpec{
				Model: sim.FaultCrash, Faulty: faulty,
				Crash: adversary.NewCrashRandom(7, faulty, 1000),
			}
			return s
		}},
		// Most sends go to peers crashed from the start: dead letters that
		// the engine counts without queueing (see TestDeadLetters).
		{"crashk-fast/crash-majority", func() *sim.Spec {
			s := base(crashk.NewFast, 16, 12, 512, 10)
			s.Faults = sim.FaultSpec{
				Model: sim.FaultCrash, Faulty: adversary.SpreadFaulty(16, 12),
				Crash: &adversary.CrashAll{Point: 0},
			}
			return s
		}},
		{"committee/silent-byzantine", func() *sim.Spec {
			s := base(committee.New, 9, 2, 96, 8)
			s.Faults = sim.FaultSpec{
				Model: sim.FaultByzantine, Faulty: adversary.SpreadFaulty(9, 2),
				NewByzantine: adversary.NewSilent,
			}
			return s
		}},
		{"crash1/deadline", func() *sim.Spec {
			s := base(crash1.New, 6, 1, 128, 9)
			s.Deadline = 2.5
			return s
		}},
	}
}
