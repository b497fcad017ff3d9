package des_test

import (
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

// eventLog records the observer stream so tests can compare not just the
// final Result but the exact order of every observable event.
type eventLog struct {
	events []sim.ObservedEvent
}

func (l *eventLog) OnEvent(ev sim.ObservedEvent) {
	ev.Msg = nil // payload identity is covered by MsgType/Bits
	l.events = append(l.events, ev)
}

// workerCase builds a fresh spec per run; specs hold mutable runtime
// state (peers), so each worker count needs its own.
type workerCase struct {
	name string
	spec func() *sim.Spec
}

func detCases() []workerCase {
	base := func(newPeer func(sim.PeerID) sim.Peer, n, t, l int, seed int64) *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: n, T: t, L: l, MsgBits: 64, Seed: seed},
			NewPeer: newPeer,
			Delays:  adversary.NewRandomUnit(seed + 1000003),
		}
	}
	return []workerCase{
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

// TestWorkerDeterminism is the scheduler's core property: the same seed
// yields an identical sim.Result AND an identical observable event order
// at every worker count — Workers=1 is the serial engine, >1 the
// speculative parallel scheduler.
func TestWorkerDeterminism(t *testing.T) {
	workerCounts := []int{1, 4, 16}
	for _, tc := range detCases() {
		t.Run(tc.name, func(t *testing.T) {
			var refRes *sim.Result
			var refLog []sim.ObservedEvent
			for _, workers := range workerCounts {
				spec := tc.spec()
				log := &eventLog{}
				spec.Observer = log
				spec.Workers = workers
				res, err := des.New().Run(spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers == workerCounts[0] {
					refRes, refLog = res, log.events
					if !res.Correct && !res.DeadlineHit {
						t.Fatalf("reference run incorrect: %+v", res.Failures)
					}
					continue
				}
				if !reflect.DeepEqual(refRes, res) {
					t.Errorf("workers=%d: Result diverged from workers=%d:\nref: %v\ngot: %v",
						workers, workerCounts[0], refRes, res)
				}
				if len(refLog) != len(log.events) {
					t.Fatalf("workers=%d: %d observed events, reference has %d",
						workers, len(log.events), len(refLog))
				}
				for i := range refLog {
					if !reflect.DeepEqual(refLog[i], log.events[i]) {
						t.Fatalf("workers=%d: event %d diverged:\nref: %+v\ngot: %+v",
							workers, i, refLog[i], log.events[i])
					}
				}
			}
		})
	}
}

// TestParallelFallback pins the serial fallback: specs the speculative
// scheduler cannot serve (churn here) still run — and still match the
// serial result — when Workers is set.
func TestParallelFallback(t *testing.T) {
	build := func(workers int) *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: 8, T: 2, L: 128, MsgBits: 64, Seed: 11},
			NewPeer: crashk.New,
			Delays:  adversary.NewRandomUnit(11 + 1000003),
			Faults: sim.FaultSpec{
				Churn: []sim.ChurnPeer{{Peer: 2, CrashAfter: 5, Downtime: 4}},
			},
			Workers: workers,
		}
	}
	serial, err := des.New().Run(build(1))
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := des.New().Run(build(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fallback) {
		t.Errorf("churn fallback diverged from serial:\nref: %v\ngot: %v", serial, fallback)
	}
}
