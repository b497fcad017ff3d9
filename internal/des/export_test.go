package des

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// RunSerialCountingEvents runs spec on the serial loop and also reports how
// many events the run queued and how many event slots it handed out. At
// the end every slot sits exactly once in the free list, the queue or a
// pre-start buffer; err names the first that does not.
func RunSerialCountingEvents(spec *sim.Spec) (res *sim.Result, queued, allocated int, err error) {
	e := newEngine(spec, nil)
	e.run()
	held := make([]int, e.slots)
	for _, slot := range e.free {
		held[slot]++
	}
	for _, x := range e.queue.es {
		held[x.slot]++
	}
	for _, p := range e.peers {
		for _, ev := range p.pending {
			held[ev.slot]++
		}
	}
	for slot, n := range held {
		if n != 1 {
			err = fmt.Errorf("event slot %d is held %d times", slot, n)
			break
		}
	}
	return e.result(), int(e.seq), int(e.slots), err
}

// RunCountingCoins runs spec and also reports how many peers built their
// random stream.
func RunCountingCoins(spec *sim.Spec) (res *sim.Result, coins int) {
	e := newEngine(spec, nil)
	e.run()
	for _, p := range e.peers {
		if p.rng != nil {
			coins++
		}
	}
	return e.result(), coins
}

// EventKinds is the event kinds an engine for spec builds.
func EventKinds(spec *sim.Spec) sim.KindSet { return newEngine(spec, nil).kinds }

// SendEventAllocs is the allocations of one send event of m from peer 1
// on an engine for spec, once a first send has resolved what it reads.
func SendEventAllocs(spec *sim.Spec, m sim.Message) float64 {
	e := newEngine(spec, nil)
	send := func() { e.observe(sim.KindSend, 1, 2, m, "", 200) }
	send()
	return testing.AllocsPerRun(100, send)
}
