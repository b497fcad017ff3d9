// Package des is the deterministic discrete-event runtime for the DR-model
// simulation, and the only in-process event loop: one engine, two
// schedulers. Peers are event-driven state machines (sim.Peer). Under Run
// the engine maintains a virtual clock and a priority queue of pending
// deliveries whose latencies are chosen by the adversary's
// sim.DelayPolicy; ties in delivery time break by insertion sequence.
// Under RunChoices the adversary schedules directly: a chooser picks which
// pending event is delivered next, and time is the number of events
// delivered (package dst records, replays, shrinks and searches such
// runs, and dst.Explore enumerates them). Given a seed and, for
// RunChoices, the decisions, executions are fully reproducible.
//
// The engine implements the paper's failure semantics, one sim.Fate per
// faulty peer:
//
//   - A crash stops a peer at an adversary-chosen action count; a crash
//     point falling between the individual sends of one Broadcast
//     reproduces "sent some, but perhaps not all, of the messages". With
//     a downtime, the peer later rejoins warm.
//   - A Byzantine fate replaces the honest protocol with an adversary-built
//     behavior that knows the input and coordinates via a shared blackboard.
//
// The engine also detects global deadlock (no pending events while some
// honest peer has not terminated) — the failure mode the paper's
// "wait for n−t, never n" rules exist to avoid — and enforces an event cap
// as a non-termination backstop.
package des

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/bitarray"
	"repro/internal/obs"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// Runtime executes specs deterministically on a virtual clock.
type Runtime struct{}

// New returns a discrete-event runtime.
func New() *Runtime { return &Runtime{} }

// Run executes the spec to completion. The returned Result is fully
// populated (Finalize has been called). An error is returned only for
// invalid specs; protocol-level failures (wrong outputs, deadlock, event
// cap) are reported inside the Result.
func (rt *Runtime) Run(spec *sim.Spec) (*sim.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("des: %w", err)
	}
	e := newEngine(spec, nil)
	e.run()
	return e.result(), nil
}

// Schedule is what a RunChoices execution decided.
type Schedule struct {
	// Choices holds every decision taken, one per decision point, already
	// reduced mod the fan-out at that point.
	Choices []int
	// MaxFanout is the largest number of events pending at a decision point.
	MaxFanout int
	// Panic is the value peer code panicked with, which ended the run then
	// and there; nil for a run that ended by itself.
	Panic any
}

// RunChoices executes the spec with the adversary as the scheduler. All
// pending events — starts, messages, query replies, source retries and
// breaker wakes, churn rejoins — wait in one list in arrival order;
// whenever two or more wait, choose(decision, fanout) names the one
// delivered next (decision counts decision points from 0, and the value
// is reduced mod fanout). The clock is the number of events delivered, so
// Result.Time still orders terminations, a source.FaultPlan's times count
// steps, and a churn peer's Downtime only says whether it rejoins.
// Result.Events is the step count.
//
// Spec.Delays is never consulted. The schedule space differs from Run's
// in a few places, each marked where the engine branches on its chooser;
// package dst's pinned replay corpus fixes them. A panic in peer code is
// a finding, not a crash: the Result describes the run up to it.
func RunChoices(spec *sim.Spec, choose func(decision, fanout int) int) (*sim.Result, Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, Schedule{}, fmt.Errorf("des: %w", err)
	}
	if spec.Deadline > 0 {
		return nil, Schedule{}, fmt.Errorf("des: a choice-driven run has no virtual time for Deadline %g to bound; set Config.MaxEvents", spec.Deadline)
	}
	e := newEngine(spec, choose)
	func() {
		defer func() { e.sched.Panic = recover() }()
		e.runChoices()
	}()
	return e.result(), e.sched, nil
}

type eventKind uint8

const (
	evStart eventKind = iota + 1
	evMessage
	evQueryReply
	// Source-tier internal events (only scheduled when the spec carries
	// an enabled source.FaultPlan). They are engine bookkeeping, not
	// peer deliveries: they bypass crash-action accounting and never
	// reach the peer's handlers directly.
	evSrcIssue // (re-)issue a source call after backoff or a flush
	evSrcFail  // a source failure becomes known to the peer's client
	evSrcWake  // breaker cooldown elapsed: release a parked probe
	// evRejoin revives a crashed churn peer with a fresh protocol
	// instance resuming from its persisted verified-index state.
	evRejoin
)

type event struct {
	kind eventKind
	slot int32
	to   sim.PeerID
	from sim.PeerID // evMessage only
	msg  sim.Message
	src  *srcEvent // evQueryReply and the source-tier kinds only
}

// srcEvent is what only query replies and source-tier events carry.
type srcEvent struct {
	qr   sim.QueryReply
	call *qplane.Call // evSrcIssue/evSrcFail, and evQueryReply via the source tier
	fail source.Kind  // evSrcFail only
}

// slabSize is how many events a slab holds. An event stays put in its slab
// while pending; its queue entry says when it is due and names it by slot.
const slabSize = 256

type peerState struct {
	id         sim.PeerID
	honest     bool
	impl       sim.Peer
	ctx        *peerCtx
	rng        *rand.Rand // nil until the peer's first Rand call
	crashed    bool
	terminated bool
	started    bool
	crashPoint int // negative: never crashes
	actions    int
	// pending buffers events that arrive before the peer's start event
	// (the model allows non-simultaneous starts); they are delivered in
	// arrival order right after Init.
	pending []*event
	stats   sim.PeerStats
	// q is the peer's query plane (package qplane): Q charging, the
	// source-call lifecycle and the churn warm state. The engine supplies
	// only the event times.
	q *qplane.Plane
	// fate is the peer's fault (nil for an honest peer).
	fate *sim.Fate
	// Metric handles, resolved once at engine construction. All nil when
	// spec.Metrics is nil; nil obs handles are allocation-free no-ops, so
	// the hot paths below call them unconditionally.
	mQueryBits *obs.Counter
	mQueries   *obs.Counter
	mMsgs      *obs.Counter
	mMsgBits   *obs.Counter
}

type engine struct {
	spec  *sim.Spec
	cfg   sim.Config
	input *bitarray.Array
	// choose is nil under Run. Under RunChoices it picks the next event, and
	// queue is then a plain list in arrival order instead of a heap.
	choose  func(decision, fanout int) int
	sched   Schedule
	queue   eventQueue
	slabs   []*[slabSize]event
	slots   int32   // slots handed out so far
	free    []int32 // recycled slots (see alloc-budget tests)
	seq     int64
	now     float64
	peers   []*peerState
	current sim.PeerID // peer whose handler is executing; -1 otherwise
	events  int
	cap     int
	// honestLive counts honest peers that have not terminated, so the
	// per-event liveness check is O(1) instead of an O(n) scan.
	honestLive int
	// churnLive counts rejoining churn peers (Downtime ≥ 0) that have not
	// terminated: the engine keeps draining events for them even after
	// every honest peer finished, so recovery runs to completion and its
	// stats are observable. Correctness still never depends on them.
	churnLive int
	// deadAt is the latest arrival time among the dead letters send did not
	// queue (those past Spec.Deadline excepted: deadPast records that there
	// was one). See deadLetter.
	deadAt   float64
	deadPast bool
	res      sim.Result
	// know is what Byzantine fates know (nil without one).
	know *sim.Knowledge
	// kinds are the event kinds the observer reads (none without one).
	kinds sim.KindSet
	// Observability handles (see peerState): nil handles are no-ops, and
	// timing/depth sampling is additionally gated on mDispatch so the
	// disabled path never touches the wall clock.
	mEvents   *obs.Counter
	mCrashes  *obs.Counter
	mTerms    *obs.Counter
	mDispatch *obs.Histogram
	mDepth    *obs.Histogram
}

func newEngine(spec *sim.Spec, choose func(decision, fanout int) int) *engine {
	cfg := spec.Config
	e := &engine{
		spec:    spec,
		cfg:     cfg,
		choose:  choose,
		input:   cfg.ResolveInput(),
		peers:   make([]*peerState, cfg.N),
		current: -1,
		cap:     cfg.EventCap(),
	}
	tier := qplane.NewTier(e.input, cfg.N, cfg.Seed, spec.SourceFaults, spec.Mirrors, spec.SourcePolicy)
	e.know = spec.Faults.Knowledge(e.input, cfg)
	e.kinds = sim.KindsOf(spec.Observer)
	fates := spec.Faults.ByPeer(cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := sim.PeerID(i)
		p := &peerState{
			id:         id,
			honest:     true,
			crashPoint: -1,
			stats:      sim.PeerStats{ID: id, Honest: true},
			fate:       fates[i],
		}
		var warm *bitarray.Tracker // spec.Warm's bits, unless a Byzantine behavior runs
		if spec.Warm != nil {
			warm = spec.Warm[i]
		}
		if f := p.fate; f != nil {
			// A faulty peer crashes at its action count and, with a
			// downtime, later rejoins warm from its persisted verified
			// bits; the engine drains events for it until it terminates.
			p.honest = false
			p.stats.Honest = false
			p.crashPoint = f.CrashAfter
			if f.Byzantine != nil {
				warm = nil
			}
			if f.Rejoins() {
				e.churnLive++
			}
		}
		p.impl = e.newImpl(p)
		p.q = tier.NewPlane(i, &p.stats, p.fate.Rejoins(), warm)
		p.ctx = &peerCtx{e: e, p: p}
		e.peers[i] = p
		if p.honest {
			e.honestLive++
		}
	}
	if m := spec.Metrics; m != nil {
		// One setup-time resolution per peer; hot paths then go through
		// the cached handles only. Specs with nil Metrics skip this block
		// entirely, which is what keeps the pinned allocation budgets in
		// alloc_test.go valid.
		label := spec.Label
		if label == "" {
			label = "unknown"
		}
		e.mEvents = m.Counter("dr_sim_events_total", "Delivered simulation events.")
		e.mCrashes = m.Counter("dr_sim_crashes_total", "Peer crashes executed by the fault adversary.")
		e.mTerms = m.Counter("dr_sim_terminations_total", "Peer terminations.")
		e.mDispatch = m.Histogram("dr_sim_dispatch_seconds",
			"Wall-clock latency of one event dispatch.", obs.ExpBuckets(1e-7, 10, 8))
		e.mDepth = m.Histogram("dr_sim_queue_depth",
			"Pending event-queue depth sampled at each dispatch.", obs.ExpBuckets(1, 4, 10))
		qBits := m.CounterVec("dr_sim_query_bits_total", "Source bits queried (the Q measure).", "protocol", "peer")
		qCalls := m.CounterVec("dr_sim_query_calls_total", "Source Query invocations.", "protocol", "peer")
		msgs := m.CounterVec("dr_sim_msgs_sent_total", "Peer messages sent, in b-bit chunks (the M measure).", "protocol", "peer")
		msgBits := m.CounterVec("dr_sim_msg_bits_sent_total", "Payload bits sent peer-to-peer.", "protocol", "peer")
		for _, p := range e.peers {
			id := strconv.Itoa(int(p.id))
			p.mQueryBits = qBits.With(label, id)
			p.mQueries = qCalls.With(label, id)
			p.mMsgs = msgs.With(label, id)
			p.mMsgBits = msgBits.With(label, id)
		}
	}
	// Schedule starts.
	for _, p := range e.peers {
		ev := e.newEvent()
		ev.kind, ev.to = evStart, p.id
		var at float64
		if choose == nil {
			at = spec.Delays.StartDelay(p.id)
		}
		e.push(at, ev)
	}
	return e
}

// newImpl builds p's protocol instance: its fate's Byzantine behavior, or
// the honest protocol.
func (e *engine) newImpl(p *peerState) sim.Peer {
	if p.fate != nil && p.fate.Byzantine != nil {
		return p.fate.Byzantine(p.id, e.know)
	}
	return e.spec.NewPeer(p.id)
}

// newEvent returns a zeroed event, reusing a recycled slot when one is
// available. Recycling keeps steady-state event allocation at zero: the
// slabs grow to the maximum number of in-flight events and are then reused
// for the rest of the execution.
func (e *engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return e.event(slot)
	}
	if e.slots%slabSize == 0 {
		e.slabs = append(e.slabs, new([slabSize]event))
	}
	ev := e.event(e.slots)
	ev.slot = e.slots
	e.slots++
	return ev
}

func (e *engine) event(slot int32) *event {
	return &e.slabs[slot/slabSize][slot%slabSize]
}

// release returns a processed event's slot to the free list, dropping its
// references into peer-held data so recycling never retains them.
func (e *engine) release(ev *event) {
	*ev = event{slot: ev.slot}
	e.free = appendDoubling(e.free, ev.slot)
}

// push makes ev pending, due at at. A chooser indexes the pending events
// by arrival, so for it they are appended and their times mean nothing.
func (e *engine) push(at float64, ev *event) {
	x := entry{at: at, slot: ev.slot}
	if e.choose != nil {
		e.queue.es = appendDoubling(e.queue.es, x)
		return
	}
	x.seq = e.seq
	e.seq++
	e.queue.push(x)
}

// count books one delivered event. A choice-driven run has no other clock:
// its time is the number of events delivered so far.
func (e *engine) count() {
	e.events++
	e.mEvents.Inc()
	if e.choose != nil {
		e.now = float64(e.events)
	}
}

func (e *engine) run() {
	for e.queue.len() > 0 {
		if e.honestLive == 0 && e.churnLive == 0 {
			return
		}
		if e.events >= e.cap {
			e.res.EventCapHit = true
			return
		}
		x := e.queue.pop()
		ev := e.event(x.slot)
		if d := e.spec.Deadline; d > 0 && x.at > d {
			// The next deliverable event lies past the deadline while some
			// honest peer is still running: cut the execution off here.
			e.release(ev)
			e.cutAtDeadline()
			return
		}
		if x.at > e.now {
			e.now = x.at
		}
		p := e.peers[ev.to]
		e.step(p, ev)
		// Batch: deliveries for the same peer at the same timestamp are
		// drained consecutively. The heap head is the global minimum, so
		// this is the exact pop order the outer loop would produce; it
		// just skips re-entering the loop per event.
		for e.queue.len() > 0 && (e.honestLive > 0 || e.churnLive > 0) && e.events < e.cap {
			nxt := e.queue.head()
			if nxt.at != e.now || e.event(nxt.slot).to != p.id {
				break
			}
			e.step(p, e.event(e.queue.pop().slot))
		}
	}
	e.queueExhausted()
}

// runChoices is run for RunChoices: the chooser, not the clock, says which
// pending event is next, one event per turn (no same-timestamp batching),
// and a single pending event is delivered without asking.
func (e *engine) runChoices() {
	for e.queue.len() > 0 && (e.honestLive > 0 || e.churnLive > 0) {
		if e.events >= e.cap {
			e.res.EventCapHit = true
			return
		}
		idx := 0
		if n := e.queue.len(); n > 1 {
			e.sched.MaxFanout = max(e.sched.MaxFanout, n)
			idx = e.choose(len(e.sched.Choices), n) % n
			if idx < 0 {
				idx += n
			}
			e.sched.Choices = append(e.sched.Choices, idx)
		}
		ev := e.event(e.queue.take(idx).slot)
		e.step(e.peers[ev.to], ev)
	}
	e.queueExhausted()
}

// deadLetter accounts for a message to a peer that can never read it, due
// at the given time. M is charged at send; past that, step would pop such
// a message only to drop it, uncounted. So it is not queued. What a popped
// one could still show is where the run's clock stops — the deadline cut
// and Settle read it — and which of Deadlocked, DeadlineHit and EventCapHit
// ends a starved run: cutAtDeadline and queueExhausted work both out from
// the latest due time kept here.
func (e *engine) deadLetter(at float64) {
	if d := e.spec.Deadline; d > 0 && at > d {
		e.deadPast = true
	} else if at > e.deadAt {
		e.deadAt = at
	}
}

// cutAtDeadline ends a run whose next event lies past Spec.Deadline. The
// dead letters due before the deadline were due before that event too, so
// the clock had reached the last of them.
func (e *engine) cutAtDeadline() {
	e.res.DeadlineHit = true
	e.now = max(e.now, e.deadAt)
}

// queueExhausted ends a run that has nothing left to deliver. Dead letters
// still due would have been popped one by one under the loop's checks, in
// the loop's order: nobody left to wait for, the event cap, the deadline,
// and then the clock moves to the letter. A letter due at the very time of
// the last event counts as popped before it.
func (e *engine) queueExhausted() {
	if e.honestLive == 0 && e.churnLive == 0 {
		return
	}
	if e.deadPast || e.deadAt > e.now {
		if e.events >= e.cap {
			e.res.EventCapHit = true
			return
		}
		if e.now = max(e.now, e.deadAt); e.deadPast {
			e.res.DeadlineHit = true
			return
		}
	}
	if e.honestLive > 0 {
		e.res.Deadlocked = true
	}
}

// step routes one popped event: drop if the peer is gone, buffer if the
// peer has not started, otherwise dispatch (draining the pre-start buffer
// right after a delivered start event).
func (e *engine) step(p *peerState, ev *event) {
	if ev.kind == evRejoin {
		// Rejoin is the one event a crashed peer still receives.
		e.rejoin(p)
		e.release(ev)
		return
	}
	if p.terminated || p.crashed {
		e.release(ev)
		return
	}
	switch ev.kind {
	case evSrcIssue, evSrcFail, evSrcWake:
		// Engine bookkeeping: no crash-action accounting, no handler
		// delivery, but still events under the non-termination cap.
		e.count()
		switch ev.kind {
		case evSrcIssue:
			e.srcDo(p, p.q.Admit(e.now, ev.src.call))
		case evSrcFail:
			e.srcFail(p, ev.src.call, ev.src.fail)
		case evSrcWake:
			e.srcDo(p, p.q.Wake(e.now))
		}
		e.release(ev)
		return
	}
	if !p.started && ev.kind != evStart {
		p.pending = append(p.pending, ev)
		return
	}
	wasStart := ev.kind == evStart
	delivered := e.dispatch(p, ev)
	e.release(ev)
	if !delivered || !wasStart {
		return
	}
	// Drain events that arrived before the start.
	for i, buf := range p.pending {
		if p.terminated || p.crashed {
			for _, rest := range p.pending[i:] {
				e.release(rest)
			}
			break
		}
		e.dispatch(p, buf)
		e.release(buf)
	}
	p.pending = nil
}

// dispatch performs the crash check and delivers one event; it reports
// whether the event was actually delivered.
func (e *engine) dispatch(p *peerState, ev *event) bool {
	e.count()
	// A delivery is an action; the adversary may crash the peer here
	// instead of letting it process the event.
	if !p.honest && p.crashPoint >= 0 {
		p.actions++
		if p.actions > p.crashPoint {
			e.crash(p)
			return false
		}
	}
	if e.mDispatch != nil {
		// Depth and wall-clock sampling only when metrics are enabled:
		// the disabled path must not touch time.Now.
		e.mDepth.Observe(float64(e.queue.len()))
		start := time.Now()
		e.deliver(p, ev)
		e.mDispatch.Observe(time.Since(start).Seconds())
		return true
	}
	e.deliver(p, ev)
	return true
}

func (e *engine) deliver(p *peerState, ev *event) {
	e.current = p.id
	switch ev.kind {
	case evStart:
		p.started = true
		e.observe(sim.KindStart, p.id, -1, "", 0)
		p.impl.Init(p.ctx)
	case evMessage:
		if e.kinds&sim.KindDeliver != 0 {
			// The type label and the size walk are paid for only when
			// someone reads deliveries (they dominated allocation otherwise).
			e.observeMsg(sim.KindDeliver, p.id, ev.from, ev.msg, sim.MsgType(ev.msg), ev.msg.SizeBits())
		}
		p.impl.OnMessage(ev.from, ev.msg)
	case evQueryReply:
		if ev.src.call != nil {
			// The reply crossed the (faulty) source: the breaker hears of
			// the success when the reply arrives.
			e.srcSuccess(p)
		}
		p.q.Learn(ev.src.qr)
		e.observe(sim.KindQReply, p.id, -1, "", len(ev.src.qr.Indices))
		p.impl.OnQueryReply(ev.src.qr)
	}
	e.current = -1
}

func (e *engine) crash(p *peerState) {
	p.crashed = true
	p.stats.Crashed = true
	e.mCrashes.Inc()
	e.observe(sim.KindCrash, p.id, -1, "", 0)
	if p.rejoins() {
		ev := e.newEvent()
		ev.kind, ev.to = evRejoin, p.id
		e.push(e.now+p.fate.Downtime, ev)
	}
}

// rejoins reports whether a crash of p is followed by a rejoin: p's fate
// has a downtime and p has not used its one rejoin yet.
func (p *peerState) rejoins() bool {
	return p.fate.Rejoins() && !p.stats.Rejoined
}

// unreachable reports whether p can never again read a message: it has
// terminated, or crashed with no rejoin to come. step drops every event
// for such a peer unread.
func (p *peerState) unreachable() bool {
	return p.terminated || (p.crashed && !p.rejoins())
}

// rejoin revives a crashed churn peer: a fresh protocol instance is
// initialized immediately, and its subsequent queries are answered from
// the persisted verified-index state where possible (see peerCtx.Query).
// The recovered peer runs honestly to completion — recovery is the whole
// point — but stays accounted faulty, so correctness aggregates never
// depend on it.
func (e *engine) rejoin(p *peerState) {
	if !p.crashed || p.terminated || p.stats.Rejoined {
		return
	}
	e.count()
	p.crashed = false
	p.q.Rejoin(nil)
	p.crashPoint = -1
	p.actions = 0
	p.impl = e.newImpl(p)
	p.started = true
	p.pending = nil
	e.observe(sim.KindRejoin, p.id, -1, "", 0)
	e.current = p.id
	p.impl.Init(p.ctx)
	e.current = -1
}

// queryDelay returns the adversary's query round-trip latency, floored
// like message delays. A chooser draws no delays.
func (e *engine) queryDelay(p *peerState) float64 {
	if e.choose != nil {
		return 0
	}
	d := e.spec.Delays.QueryDelay(p.id, e.now)
	if d <= 0 {
		d = 1e-9
	}
	return d
}

// issue hands a source call to the peer's breaker. Under a clock it is
// admitted now; a chooser places the admission — and so the attempt's
// fault roll — as an event of its own.
func (e *engine) issue(p *peerState, call *qplane.Call) {
	if e.choose != nil {
		ev := e.newEvent()
		ev.kind, ev.to, ev.src = evSrcIssue, p.id, &srcEvent{call: call}
		e.push(0, ev)
		return
	}
	e.srcDo(p, p.q.Admit(e.now, call))
}

// srcSuccess reports a source success to the plane; a breaker it closes
// re-issues every parked call.
func (e *engine) srcSuccess(p *peerState) {
	flushed, _ := p.q.Success(e.now)
	for _, call := range flushed {
		e.issue(p, call)
	}
}

// srcDo carries out the query plane's verdict on the engine's clock:
// attempt now, re-admit after the backoff, or wake the breaker later. (A
// chooser decides when a retry or a wake lands; a wake delivered early
// re-arms itself, and every delivery advances the step clock, so the wait
// always ends.)
func (e *engine) srcDo(p *peerState, n qplane.Next) {
	switch n.Op {
	case qplane.Fetch:
		e.fetch(p, n.Call)
	case qplane.Retry:
		ev := e.newEvent()
		ev.kind, ev.to, ev.src = evSrcIssue, p.id, &srcEvent{call: n.Call}
		e.push(n.At, ev)
	case qplane.Wake:
		ev := e.newEvent()
		ev.kind, ev.to = evSrcWake, p.id
		e.push(n.At, ev)
	}
}

// fetch performs one source attempt. Success schedules the protocol's
// query reply; failure schedules the moment the peer learns of it — after
// the query deadline for lost replies, after one round trip for active
// refusals.
func (e *engine) fetch(p *peerState, call *qplane.Call) {
	qr, latency, err := p.q.Fetch(e.now, call)
	if err != nil {
		kind := source.KindOf(err)
		if e.choose != nil {
			// No deadline or round trip to wait out: the chooser already
			// controls when the retry lands, so the failure is ruled on at
			// once, with no evSrcFail in between.
			e.srcFail(p, call, kind)
			return
		}
		at := e.now
		if kind == source.KindTimeout {
			at += p.q.Deadline()
		} else {
			at += e.queryDelay(p)
		}
		ev := e.newEvent()
		ev.kind, ev.to, ev.src = evSrcFail, p.id, &srcEvent{call: call, fail: kind}
		e.push(at, ev)
		return
	}
	if e.choose != nil {
		// Under a chooser the breaker hears of a success twice, here and
		// when the reply is delivered: the pinned replay corpus records the
		// event order that produces.
		e.srcSuccess(p)
	}
	ev := e.newEvent()
	ev.kind, ev.to, ev.src = evQueryReply, p.id, &srcEvent{qr: qr, call: call}
	e.push(e.now+e.queryDelay(p)+latency, ev)
}

// srcFail delivers a now-known failure to the plane, which either backs
// the call off or parks it behind the opened breaker.
func (e *engine) srcFail(p *peerState, call *qplane.Call, kind source.Kind) {
	e.observe(sim.KindQFail, p.id, -1, kind.String(), len(call.Fetch))
	e.srcDo(p, p.q.Fail(e.now, call, kind))
}

func (e *engine) result() *sim.Result {
	e.res.PerPeer = make([]sim.PeerStats, len(e.peers))
	var fails *obs.CounterVec
	var retries, opens, deferred *obs.Counter
	srcTier := e.spec.SourceFaults.Enabled() || e.spec.Mirrors.Enabled()
	if srcTier && e.spec.Metrics != nil {
		label := e.spec.Label
		if label == "" {
			label = "unknown"
		}
		m := e.spec.Metrics
		fails = m.CounterVec("dr_source_failures_total",
			"Source query attempts that failed, by failure kind.", "protocol", "kind")
		retries = m.CounterVec("dr_source_retries_total",
			"Source query attempts re-issued after a failure.", "protocol").With(label)
		opens = m.CounterVec("dr_source_breaker_opens_total",
			"Circuit-breaker open transitions.", "protocol").With(label)
		deferred = m.CounterVec("dr_source_deferred_total",
			"Queries parked while a breaker was open.", "protocol").With(label)
		_ = fails.With(label, "outage") // pre-create the common series
	}
	for i, p := range e.peers {
		st := p.q.Settle(e.now)
		if e.spec.SourceFaults.Enabled() && e.spec.Metrics != nil {
			label := e.spec.Label
			if label == "" {
				label = "unknown"
			}
			fails.With(label, "outage").Add(int64(st.Outages))
			fails.With(label, "flaky").Add(int64(st.Flaky))
			fails.With(label, "ratelimit").Add(int64(st.RateLimits))
			fails.With(label, "timeout").Add(int64(st.Timeouts))
			retries.Add(int64(st.Retries))
			opens.Add(int64(st.BreakerOpens))
			deferred.Add(int64(st.Deferred))
		}
		e.res.PerPeer[i] = p.stats
	}
	if e.spec.Mirrors.Enabled() && e.spec.Metrics != nil {
		label := e.spec.Label
		if label == "" {
			label = "unknown"
		}
		m := e.spec.Metrics
		hits := m.CounterVec("dr_mirror_hits_total",
			"Queries answered by a verified mirror reply.", "protocol").With(label)
		pfails := m.CounterVec("dr_mirror_proof_failures_total",
			"Mirror replies rejected by Merkle verification.", "protocol").With(label)
		fb := m.CounterVec("dr_mirror_fallback_total",
			"Queries re-issued to the authoritative source.", "protocol").With(label)
		for i := range e.res.PerPeer {
			hits.Add(int64(e.res.PerPeer[i].MirrorHits))
			pfails.Add(int64(e.res.PerPeer[i].ProofFailures))
			fb.Add(int64(e.res.PerPeer[i].FallbackQueries))
		}
	}
	e.res.Events = e.events
	e.res.Finalize(e.input)
	return &e.res
}

// observe forwards a structured event of one kind to the spec's Observer,
// if it reads that kind.
func (e *engine) observe(kind sim.KindSet, peer, other sim.PeerID, msgType string, bits int) {
	if e.kinds&kind == 0 {
		return
	}
	e.spec.Observer.OnEvent(sim.ObservedEvent{
		Time: e.now, Kind: kind.Name(), Peer: peer, Other: other,
		MsgType: msgType, Bits: bits,
	})
}

// observeMsg forwards a send/deliver event carrying the message payload
// (evidence collectors inspect it for conflicting claims), its type label
// and its size. Callers gate on the observer reading kind.
func (e *engine) observeMsg(kind sim.KindSet, peer, other sim.PeerID, m sim.Message, typ string, bits int) {
	e.spec.Observer.OnEvent(sim.ObservedEvent{
		Time: e.now, Kind: kind.Name(), Peer: peer, Other: other,
		MsgType: typ, Bits: bits, Msg: m,
	})
}

// peerCtx implements sim.Context for one peer.
type peerCtx struct {
	e *engine
	p *peerState
}

var _ sim.Context = (*peerCtx)(nil)

func (c *peerCtx) ID() sim.PeerID { return c.p.id }
func (c *peerCtx) N() int         { return c.e.cfg.N }
func (c *peerCtx) T() int         { return c.e.cfg.T }
func (c *peerCtx) L() int         { return c.e.cfg.L }
func (c *peerCtx) MsgBits() int   { return c.e.cfg.MsgBits }

func (c *peerCtx) active() bool {
	if c.e.current != c.p.id {
		panic(fmt.Sprintf("des: context of peer %d used outside its handler (current=%d)",
			c.p.id, c.e.current))
	}
	return !c.p.crashed && !c.p.terminated
}

func (c *peerCtx) Send(to sim.PeerID, m sim.Message) {
	size, chunks, typ := c.sizeOf(m)
	c.send(to, m, size, chunks, typ)
}

// sizeOf returns m's accounted size, the number of b-bit link messages
// it occupies and, when an observer listens, its type label.
func (c *peerCtx) sizeOf(m sim.Message) (size, chunks int, typ string) {
	size = m.SizeBits()
	if c.e.kinds&sim.KindSend != 0 {
		typ = sim.MsgType(m)
	}
	return size, max(1, (size+c.e.cfg.MsgBits-1)/c.e.cfg.MsgBits), typ
}

// send is Send with sizeOf(m) supplied by the caller, so a broadcast walks
// a long message and labels it once and not once per recipient.
func (c *peerCtx) send(to sim.PeerID, m sim.Message, size, chunks int, typ string) {
	if !c.active() {
		return
	}
	if to < 0 || int(to) >= c.e.cfg.N || to == c.p.id {
		return
	}
	p := c.p
	// Each send is an action: the adversary may crash the peer between
	// the sends of a single broadcast.
	if !p.honest && p.crashPoint >= 0 {
		p.actions++
		if p.actions > p.crashPoint {
			c.e.crash(p)
			return
		}
	}
	p.stats.MsgsSent += chunks
	p.stats.MsgBitsSent += size
	p.mMsgs.Add(int64(chunks))
	p.mMsgBits.Add(int64(size))
	if c.e.kinds&sim.KindSend != 0 {
		c.e.observeMsg(sim.KindSend, p.id, to, m, typ, size)
	}
	var at float64
	if c.e.choose == nil {
		delay := c.e.spec.Delays.MessageDelay(p.id, to, c.e.now, size)
		if delay <= 0 {
			delay = 1e-9
		}
		// A payload larger than b is ⌈size/b⌉ consecutive b-bit messages on
		// the link; the receiver acts on the full payload when the last
		// chunk lands. This is what makes the paper's T = O(L/(nb) + …)
		// time bounds — and their dependence on b — observable.
		at = c.e.now + delay*float64(chunks)
		if c.e.peers[to].unreachable() {
			// M, the observer and the delay stream have been charged above
			// exactly as for any send. Only under a clock, though: a dead
			// letter is one of the events a chooser chooses among, so there
			// it is queued like any other.
			c.e.deadLetter(at)
			return
		}
	}
	ev := c.e.newEvent()
	ev.kind, ev.to, ev.from, ev.msg = evMessage, to, p.id, m
	c.e.push(at, ev)
}

func (c *peerCtx) Broadcast(m sim.Message) {
	size, chunks, typ := c.sizeOf(m)
	for i := 0; i < c.e.cfg.N; i++ {
		if sim.PeerID(i) != c.p.id {
			c.send(sim.PeerID(i), m, size, chunks, typ)
		}
	}
}

func (c *peerCtx) Query(tag int, indices []int) {
	if !c.active() {
		return
	}
	p := c.p
	if !p.honest && p.crashPoint >= 0 {
		p.actions++
		if p.actions > p.crashPoint {
			c.e.crash(p)
			return
		}
	}
	b := p.q.Begin(tag, indices)
	p.mQueryBits.Add(int64(b.Charged))
	p.mQueries.Inc()
	c.e.observe(sim.KindQuery, p.id, -1, "", b.Charged)
	switch b.Kind {
	case qplane.Issue:
		// Through the (possibly faulty, possibly mirrored) source tier.
		c.e.issue(p, b.Call)
	case qplane.WarmHit:
		// Answered locally, no source round trip.
		ev := c.e.newEvent()
		ev.kind, ev.to, ev.src = evQueryReply, p.id, &srcEvent{qr: b.Reply}
		c.e.push(c.e.now+1e-6, ev)
	case qplane.Oracle:
		ev := c.e.newEvent()
		ev.kind, ev.to, ev.src = evQueryReply, p.id, &srcEvent{qr: b.Reply}
		c.e.push(c.e.now+c.e.queryDelay(p), ev)
	}
}

func (c *peerCtx) Output(out *bitarray.Array) {
	if !c.active() {
		return
	}
	c.p.stats.Output = out.Clone()
}

func (c *peerCtx) Terminate() {
	if !c.active() {
		return
	}
	c.p.terminated = true
	c.p.stats.Terminated = true
	c.p.stats.TermTime = c.e.now
	if c.p.honest {
		c.e.honestLive--
	} else if c.p.fate.Rejoins() {
		c.e.churnLive--
	}
	c.e.mTerms.Inc()
	c.e.observe(sim.KindTerminate, c.p.id, -1, "", 0)
}

// Rand seeds the peer's stream at its first call, from (Seed, id) alone: no
// draw depends on which event makes it, and a peer that never draws pays none.
func (c *peerCtx) Rand() *rand.Rand {
	if c.p.rng == nil {
		c.p.rng = rand.New(rand.NewSource(c.e.cfg.Seed + int64(c.p.id)*0x9e3779b97f4a7c + 1))
	}
	return c.p.rng
}
func (c *peerCtx) Now() float64 { return c.e.now }

// MarkPhase forwards a "phase" event to the observer (the harden
// starvation detector keys its progress tracking off these). With none
// attached it is a free no-op.
func (c *peerCtx) MarkPhase(name string) {
	if c.e.kinds&sim.KindPhase == 0 || !c.active() {
		return
	}
	c.e.spec.Observer.OnEvent(sim.ObservedEvent{
		Time: c.e.now, Kind: sim.KindPhase.Name(), Peer: c.p.id, Other: -1, Name: name,
	})
}
