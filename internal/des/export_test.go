package des

import "repro/internal/sim"

// RunSerialCountingEvents runs spec on the serial loop and also reports how
// many events the run queued and how many event structs it allocated: at
// the end every struct sits in the free list, the queue or a pre-start
// buffer.
func RunSerialCountingEvents(spec *sim.Spec) (res *sim.Result, queued, allocated int) {
	e := newEngine(spec, nil)
	e.run()
	allocated = len(e.free) + e.queue.len()
	for _, p := range e.peers {
		allocated += len(p.pending)
	}
	return e.result(), int(e.seq), allocated
}
