package des_test

import (
	"math/rand"
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

// TestRunChoicesIgnoresDelays: under a chooser the chooser is the whole
// scheduling adversary. RunChoices never consults the spec's delay policy,
// asks the chooser at every fan-out, and its clock is the delivered-event
// count; the same spec under des.Run's delay policy stays correct too.
func TestRunChoicesIgnoresDelays(t *testing.T) {
	for _, tc := range detCases() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := des.New().Run(tc.spec())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct && !res.DeadlineHit {
				t.Fatalf("Run incorrect: %v", res.Failures)
			}

			var log eventLog
			spec := tc.spec()
			spec.Deadline = 0 // virtual time; RunChoices refuses it
			spec.Delays = noDelays{t}
			spec.Observer = &log
			rng := rand.New(rand.NewSource(99))
			res, sched, err := des.RunChoices(spec, func(_, fanout int) int { return rng.Intn(fanout) })
			if err != nil {
				t.Fatal(err)
			}
			if sched.Panic != nil {
				t.Fatalf("peer panic: %v", sched.Panic)
			}
			if !res.Correct {
				t.Fatalf("RunChoices incorrect: %v", res)
			}
			if len(sched.Choices) == 0 || sched.MaxFanout < 2 {
				t.Fatalf("the chooser was never asked: %+v", sched)
			}
			// The clock is the delivered-event count.
			if last := log.events[len(log.events)-1].Time; last > float64(res.Events) {
				t.Errorf("event at time %g in a run of %d steps", last, res.Events)
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

func (l *eventLog) OnEvent(ev *sim.ObservedEvent) {
	e := *ev
	e.Msg = nil // payload identity is covered by MsgType/Bits
	l.events = append(l.events, e)
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
			s.Faults = sim.Faults{Fates: adversary.NewCrashRandom(7, faulty, 1000)}
			return s
		}},
		// Most sends go to peers crashed from the start: dead letters that
		// the engine counts without queueing (see TestDeadLetters).
		{"crashk-fast/crash-majority", func() *sim.Spec {
			s := base(crashk.NewFast, 16, 12, 512, 10)
			s.Faults = sim.Faults{Fates: sim.Crashes(adversary.SpreadFaulty(16, 12), 0)}
			return s
		}},
		{"committee/silent-byzantine", func() *sim.Spec {
			s := base(committee.New, 9, 2, 96, 8)
			s.Faults = sim.Faults{Fates: sim.Byzantines(adversary.SpreadFaulty(9, 2), adversary.NewSilent)}
			return s
		}},
		{"crash1/deadline", func() *sim.Spec {
			s := base(crash1.New, 6, 1, 128, 9)
			s.Deadline = 2.5
			return s
		}},
	}
}
