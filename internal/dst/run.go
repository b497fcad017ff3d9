package dst

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/sim"
)

// dst has no engine of its own: a run is des.RunChoices under one of the
// choosers below, with the event hash attached as the spec's observer.
//
// Determinism contract: given an identical spec and identical chooser
// decisions, des produces an identical event sequence, identical
// sim.Result, and identical event hash. Everything random is derived from
// the spec seed (input, per-peer coins, adversary knowledge coins), and no
// map iteration influences delivery order.

// chooser picks which pending event is delivered at a decision point:
// decision is the 0-based index of the decision, fanout the number of
// pending events (always ≥ 2). Values are normalized mod fanout.
type chooser func(decision, fanout int) int

// fifoChooser always picks the oldest pending event.
func fifoChooser(int, int) int { return 0 }

// replayChooser replays a recorded choice list, FIFO past its end.
func replayChooser(choices []int) chooser {
	return func(d, fanout int) int {
		if d < len(choices) {
			return choices[d]
		}
		return 0
	}
}

// randomChooser draws uniform decisions from a seeded stream.
func randomChooser(seed int64) chooser {
	rng := rand.New(rand.NewSource(seed))
	return func(_, fanout int) int { return rng.Intn(fanout) }
}

// Outcome reports one choice-driven execution.
type Outcome struct {
	// Result is the standard simulation result (Finalize has run).
	Result *sim.Result
	// EventHash is an FNV-1a fold of the full event sequence (sends,
	// deliveries, queries, crashes, terminations in order). Two runs are
	// the same execution iff their hashes match.
	EventHash uint64
	// Choices records every scheduling decision taken (one entry per
	// decision point, already normalized mod the fan-out at that point).
	Choices []int
	// MaxFanout is the largest number of simultaneously pending events
	// seen at a decision point.
	MaxFanout int
	// Steps is the number of delivered events.
	Steps int
	// PanicValue is the recovered panic from peer code, if any ("" for
	// clean executions). A panic marks the result incorrect.
	PanicValue string
}

// Violation reports whether the outcome is a safety or liveness
// violation: wrong/missing output, deadlock, step-cap exhaustion, or a
// peer panic.
func (o *Outcome) Violation() bool { return !o.Result.Correct }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// eventHash is the sim.Observer that folds a run's event sequence into
// Outcome.EventHash and passes every event on to the caller's observer.
// "phase" marks are passed on unhashed: they annotate a run for readers,
// and the hashes of the pinned corpus were taken without them.
type eventHash struct {
	sum  uint64
	next sim.Observer
}

func (h *eventHash) foldByte(b byte) { h.sum = (h.sum ^ uint64(b)) * fnvPrime }

func (h *eventHash) foldInt(v int) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h.foldByte(byte(u >> (8 * i)))
	}
}

func (h *eventHash) foldString(s string) {
	for i := 0; i < len(s); i++ {
		h.foldByte(s[i])
	}
	h.foldByte(0xff) // terminator so "ab","c" ≠ "a","bc"
}

// OnEvent hashes one event-sequence entry.
func (h *eventHash) OnEvent(ev *sim.ObservedEvent) {
	if ev.Kind != "phase" {
		h.foldString(ev.Kind)
		h.foldInt(int(ev.Peer))
		h.foldInt(int(ev.Other))
		h.foldString(ev.MsgType)
		h.foldInt(ev.Bits)
	}
	if h.next != nil {
		h.next.OnEvent(ev)
	}
}

// unusedDelays satisfies sim.Spec.Validate; a chooser draws no delays.
var unusedDelays = adversary.NewFixed(1)

// run executes spec once under the chooser. It owns the spec: the event
// hash goes in front of its observer, and a zero MaxEvents becomes the
// choice runs' step cap (tighter than des's default, and part of what a
// recorded step-cap violation means).
func run(spec *sim.Spec, choose chooser) (*Outcome, error) {
	hash := &eventHash{sum: fnvOffset, next: spec.Observer}
	spec.Observer = hash
	if spec.Delays == nil {
		spec.Delays = unusedDelays
	}
	if c := &spec.Config; c.MaxEvents == 0 {
		c.MaxEvents = 300*c.N*c.N + 64*c.N*c.L + 200000
	}
	res, sched, err := des.RunChoices(spec, choose)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Result:    res,
		EventHash: hash.sum,
		Choices:   sched.Choices,
		MaxFanout: sched.MaxFanout,
		Steps:     res.Events,
	}
	if sched.Panic != nil {
		out.PanicValue = fmt.Sprint(sched.Panic)
		res.Failures = append([]string{"peer panic: " + out.PanicValue}, res.Failures...)
		res.Correct = false
	}
	return out, nil
}
