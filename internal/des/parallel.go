package des

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// This file implements the Spec.Workers multiplexed scheduler: many peers
// per worker, speculation on workers, effects applied serially.
//
// The engine pops every event sharing the earliest timestamp as one batch.
// Message and query delays are floored strictly above zero, so nothing a
// peer does at time t can be delivered at time t: events inside a batch
// are causally independent across peers, and each honest peer's steps
// depend only on its own prior state. Worker goroutines therefore run the
// honest peers' state machines (sim.Machine) speculatively — recording
// actions, not applying them — while the coordinator then replays the
// recorded actions through the real peer contexts in global (at, seq)
// order. Every Result-visible side effect (delay-policy draws, stats,
// observer callbacks, event scheduling, termination bookkeeping) happens
// at apply time in exactly the serial order, which is what makes the
// outcome byte-identical to Workers ≤ 1 at any worker count.
//
// Peers that are not honest — crash-scheduled, Byzantine (which share a
// coordination blackboard), churn — are never speculated: their events
// run inline through the serial engine.step at their batch position.

// parallelOK reports whether the spec can run under the speculative
// scheduler. Trace output interleaves with handler execution, the source
// fault tier schedules engine-internal events, churn revives peers
// mid-run, and the mirror tier mutates shared fleet counters at fetch
// time (which speculation could double-count); all are served by the
// serial loop instead.
func (e *engine) parallelOK() bool {
	return e.spec.Workers > 1 && e.spec.Trace == nil &&
		!e.spec.SourceFaults.Enabled() && !e.spec.Mirrors.Enabled() &&
		len(e.spec.Faults.Churn) == 0
}

type recState uint8

const (
	// recApplied carries recorded actions to replay at the event's slot.
	recApplied recState = iota
	// recPended buffers the event: the peer had not started yet.
	recPended
	// recDropped releases the event: the peer had already terminated.
	recDropped
)

// stepRec is the speculation record for one batch event of one peer.
type stepRec struct {
	ev    *event
	state recState
	acts  []sim.Action
	// drained replays the peer's pre-start buffer right after a start
	// event, mirroring the serial engine.step drain.
	drained []drainRec
	// releasedPending holds pre-start events released unprocessed because
	// the peer terminated mid-drain.
	releasedPending []*event
}

type drainRec struct {
	ev   *event
	acts []sim.Action
}

// peerTask collects one peer's batch events and speculation records.
type peerTask struct {
	p    *peerState
	evs  []*event
	recs []stepRec
	next int // apply cursor into recs
}

// bindMachine lazily equips an honest peer for speculation.
func (e *engine) bindMachine(p *peerState) {
	if p.mach != nil {
		return
	}
	p.mach = sim.MachineOf(p.impl)
	p.menv = sim.Env{
		ID: p.id, N: e.cfg.N, T: e.cfg.T, L: e.cfg.L, MsgBits: e.cfg.MsgBits,
		Rand: p.rng,
	}
	p.menv.NowFn = func() float64 { return p.specNow }
}

// machineEvent converts an engine event to its machine form. Only peer
// deliveries reach honest peers under the parallelOK gate.
func machineEvent(ev *event) sim.Event {
	switch ev.kind {
	case evStart:
		return sim.Event{Kind: sim.EvInit}
	case evMessage:
		return sim.Event{Kind: sim.EvMessage, From: ev.from, Msg: ev.msg}
	case evQueryReply:
		return sim.Event{Kind: sim.EvQueryReply, Reply: ev.qr}
	}
	panic("des: unexpected event kind under the parallel scheduler")
}

// specStep runs one speculative machine step and snapshots its actions.
func (p *peerState) specStep(ev sim.Event) []sim.Action {
	p.sem.Reset(false)
	p.mach.Step(&p.menv, ev, &p.sem)
	acts := p.sem.Actions()
	if len(acts) == 0 {
		return nil
	}
	return append([]sim.Action(nil), acts...)
}

// speculate runs all of one honest peer's batch events through its state
// machine, replicating the serial engine's started/pended/terminated
// transitions without touching any engine state. It runs on a worker
// goroutine; everything it reads or writes is owned by this peer.
func (e *engine) speculate(t *peerTask, at float64) {
	p := t.p
	p.specNow = at
	started, terminated := p.started, p.terminated
	for _, ev := range t.evs {
		rec := stepRec{ev: ev, state: recApplied}
		switch {
		case terminated:
			rec.state = recDropped
		case !started && ev.kind != evStart:
			rec.state = recPended
		default:
			rec.acts = p.specStep(machineEvent(ev))
			if p.sem.Terminated() {
				terminated = true
			}
			if ev.kind == evStart {
				started = true
				// Drain the pre-start buffer exactly as engine.step does:
				// in arrival order, stopping (and releasing the rest) if a
				// step terminates the peer.
				for i, buf := range p.pending {
					if terminated {
						rec.releasedPending = p.pending[i:]
						break
					}
					acts := p.specStep(machineEvent(buf))
					if p.sem.Terminated() {
						terminated = true
					}
					rec.drained = append(rec.drained, drainRec{ev: buf, acts: acts})
				}
			}
		}
		t.recs = append(t.recs, rec)
	}
}

// runParallel is the Workers > 1 twin of engine.run.
func (e *engine) runParallel() {
	workers := e.spec.Workers
	tasks := make([]peerTask, e.cfg.N)
	var (
		active []*peerTask
		batch  []*event
	)
	for e.queue.len() > 0 {
		at := e.queue.head().at
		batch = batch[:0]
		active = active[:0]
		for e.queue.len() > 0 && e.queue.head().at == at {
			ev := e.queue.pop()
			batch = append(batch, ev)
			p := e.peers[ev.to]
			if !p.honest {
				continue // executed inline at its batch position
			}
			t := &tasks[ev.to]
			if len(t.evs) == 0 {
				t.p = p
				e.bindMachine(p)
				active = append(active, t)
			}
			t.evs = append(t.evs, ev)
		}
		switch {
		case len(active) == 1:
			e.speculate(active[0], at)
		case len(active) > 1:
			var next atomic.Int64
			var wg sync.WaitGroup
			k := workers
			if k > len(active) {
				k = len(active)
			}
			for w := 0; w < k; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(active) {
							return
						}
						e.speculate(active[i], at)
					}
				}()
			}
			wg.Wait()
		}
		stopped := e.applyBatch(batch, tasks)
		for _, t := range active {
			t.evs = t.evs[:0]
			t.recs = t.recs[:0]
			t.next = 0
		}
		if stopped {
			return
		}
	}
	e.queueExhausted()
}

// applyBatch replays one batch in global sequence order, replicating the
// serial loop's per-event liveness, cap, and deadline checks. It reports
// whether the run stopped.
func (e *engine) applyBatch(batch []*event, tasks []peerTask) bool {
	for bi, ev := range batch {
		if e.honestLive == 0 && e.churnLive == 0 {
			e.releaseBatch(batch[bi:])
			return true
		}
		if e.events >= e.cap {
			e.res.EventCapHit = true
			e.releaseBatch(batch[bi:])
			return true
		}
		if d := e.spec.Deadline; d > 0 && ev.at > d {
			e.cutAtDeadline()
			e.releaseBatch(batch[bi:])
			return true
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		p := e.peers[ev.to]
		if !p.honest {
			e.step(p, ev)
			continue
		}
		t := &tasks[ev.to]
		rec := &t.recs[t.next]
		t.next++
		switch rec.state {
		case recDropped:
			e.release(ev)
		case recPended:
			p.pending = append(p.pending, ev)
		case recApplied:
			e.applyRec(p, ev, rec.acts)
			if ev.kind == evStart {
				for _, d := range rec.drained {
					e.applyRec(p, d.ev, d.acts)
					e.release(d.ev)
				}
				for _, rest := range rec.releasedPending {
					e.release(rest)
				}
				p.pending = nil
			}
			e.release(ev)
		}
	}
	return false
}

// releaseBatch recycles the unapplied remainder of a stopped batch.
func (e *engine) releaseBatch(rest []*event) {
	for _, ev := range rest {
		e.release(ev)
	}
}

// applyRec is the honest-peer twin of engine.dispatch: it performs the
// event accounting and replays the recorded actions through the peer's
// real context. Honest peers carry no crash point, so the adversary's
// crash check is skipped exactly as dispatch skips it.
func (e *engine) applyRec(p *peerState, ev *event, acts []sim.Action) {
	e.count()
	if e.mDispatch != nil {
		e.mDepth.Observe(float64(e.queue.len()))
		start := time.Now()
		e.deliverRec(p, ev, acts)
		e.mDispatch.Observe(time.Since(start).Seconds())
		return
	}
	e.deliverRec(p, ev, acts)
}

// deliverRec is the honest-peer twin of engine.deliver. The source-tier
// and churn branches are unreachable (parallelOK excludes both), leaving
// the observation calls and the action replay.
func (e *engine) deliverRec(p *peerState, ev *event, acts []sim.Action) {
	e.current = p.id
	switch ev.kind {
	case evStart:
		p.started = true
		e.observe("start", p.id, -1, "", 0)
	case evMessage:
		if e.spec.Observer != nil {
			e.observeMsg("deliver", p.id, ev.from, ev.msg)
		}
	case evQueryReply:
		e.observe("qreply", p.id, -1, "", len(ev.qr.Indices))
	}
	sim.ApplyActions(p.ctx, acts)
	e.current = -1
}
