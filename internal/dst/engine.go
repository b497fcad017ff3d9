package dst

import (
	"fmt"
	"math/rand"

	"repro/internal/bitarray"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// The choice engine. It shares the sim contract (peers, contexts, fault
// semantics, crash action counting) with package des, but schedules by
// explicit decisions — "deliver pending event #k next" — instead of
// virtual-time delays. The virtual clock is simply the number of events
// delivered so far, which keeps Result.Time meaningful (it orders
// terminations) while staying an integer the shrinker can reason about.
//
// Determinism contract: given identical runSpec and chooser decisions the
// engine produces an identical event sequence, identical sim.Result, and
// identical event hash. Everything random is derived from the spec seed
// exactly as in des (input, per-peer coins, adversary knowledge coins),
// and no map iteration influences delivery order.

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

// runSpec is the engine-level description of one execution.
type runSpec struct {
	n, t, l, b int
	seed       int64
	newPeer    func(sim.PeerID) sim.Peer
	fault      sim.FaultModel // 0 means none
	faulty     []sim.PeerID
	crash      map[sim.PeerID]int
	newByz     func(sim.PeerID, *sim.Knowledge) sim.Peer
	observer   sim.Observer
	maxSteps   int
	// srcPlan, when enabled, routes queries through a faulty source; its
	// time-valued fields count delivered-event steps (the engine's clock).
	srcPlan *source.FaultPlan
	// mirrorPlan, when enabled, fronts the source with the untrusted
	// mirror fleet: replies are Merkle-verified and fall back to the
	// authoritative tier on failure, exactly as in des. Mirror selection
	// is seeded per (peer, ordinal), so the chooser controls only when a
	// query runs, never which mirror it lands on.
	mirrorPlan *source.MirrorPlan
	// churn lists crash-recovery churn peers (disjoint from faulty).
	churn []ChurnPoint
}

func (s *runSpec) stepCap() int {
	if s.maxSteps > 0 {
		return s.maxSteps
	}
	return 300*s.n*s.n + 64*s.n*s.l + 200000
}

// Outcome reports one engine execution.
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

type cevent struct {
	// kind: 1 start, 2 message, 3 query reply, 4 source attempt,
	// 5 breaker wake, 6 churn rejoin. Kinds 4–6 are engine bookkeeping
	// (no crash-action accounting), scheduled by the chooser like any
	// other pending event — the scheduler is the adversary over source
	// retry timing and rejoin timing too.
	kind int
	to   sim.PeerID
	from sim.PeerID
	msg  sim.Message
	qr   sim.QueryReply
	call *qplane.Call // kind 4, and kind 3 via the source tier
}

type cpeer struct {
	id         sim.PeerID
	impl       sim.Peer
	rng        *rand.Rand
	honest     bool
	crashPoint int // negative: never crashes
	actions    int
	crashed    bool
	terminated bool
	started    bool
	buffer     []*cevent // pre-start deliveries
	stats      sim.PeerStats
	// q is the peer's query plane (package qplane); the engine supplies
	// only the order in which its events are delivered.
	q *qplane.Plane
	// Churn (nil without a churn entry for this peer).
	churn *ChurnPoint
}

type cengine struct {
	spec    *runSpec
	input   *bitarray.Array
	pending []*cevent
	peers   []*cpeer
	now     float64 // delivered-event count
	steps   int
	current sim.PeerID
	live    int // honest peers not yet terminated
	// churnLive counts rejoining churn peers not yet terminated: the loop
	// keeps scheduling for them after every honest peer finished, so
	// recovery runs to completion (matching the des runtime).
	churnLive int
	hash      uint64
	out       *Outcome
	res       sim.Result
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (e *cengine) foldByte(b byte) { e.hash = (e.hash ^ uint64(b)) * fnvPrime }

func (e *cengine) foldInt(v int) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		e.foldByte(byte(u >> (8 * i)))
	}
}

func (e *cengine) foldString(s string) {
	for i := 0; i < len(s); i++ {
		e.foldByte(s[i])
	}
	e.foldByte(0xff) // terminator so "ab","c" ≠ "a","bc"
}

// foldEvent hashes one event-sequence entry.
func (e *cengine) foldEvent(kind string, peer, other sim.PeerID, detail string, bits int) {
	e.foldString(kind)
	e.foldInt(int(peer))
	e.foldInt(int(other))
	e.foldString(detail)
	e.foldInt(bits)
}

func (e *cengine) observe(kind string, peer, other sim.PeerID, msgType string, bits int) {
	e.foldEvent(kind, peer, other, msgType, bits)
	if e.spec.observer != nil {
		e.spec.observer.OnEvent(sim.ObservedEvent{
			Time: e.now, Kind: kind, Peer: peer, Other: other,
			MsgType: msgType, Bits: bits,
		})
	}
}

func msgType(m sim.Message) string { return fmt.Sprintf("%T", m) }

// execute runs one choice-driven execution to completion.
func execute(spec *runSpec, choose chooser) *Outcome {
	input := (&sim.Config{N: spec.n, T: spec.t, L: spec.l, MsgBits: spec.b, Seed: spec.seed}).ResolveInput()
	e := &cengine{spec: spec, input: input, current: -1, hash: fnvOffset}
	e.out = &Outcome{}

	var know *sim.Knowledge
	if spec.fault == sim.FaultByzantine {
		know = &sim.Knowledge{
			Input:  input,
			Config: sim.Config{N: spec.n, T: spec.t, L: spec.l, MsgBits: spec.b, Seed: spec.seed},
			Faulty: append([]sim.PeerID(nil), spec.faulty...),
			Rand:   rand.New(rand.NewSource(spec.seed ^ 0x0bad5eed)),
			Shared: make(map[string]any),
		}
	}
	isFaulty := make(map[sim.PeerID]bool, len(spec.faulty))
	for _, id := range spec.faulty {
		isFaulty[id] = true
	}
	churnFor := make(map[sim.PeerID]*ChurnPoint, len(spec.churn))
	for i := range spec.churn {
		churnFor[sim.PeerID(spec.churn[i].Peer)] = &spec.churn[i]
	}
	tier := qplane.NewTier(input, spec.n, spec.seed, spec.srcPlan, spec.mirrorPlan, source.Policy{})
	for i := 0; i < spec.n; i++ {
		id := sim.PeerID(i)
		p := &cpeer{
			id:         id,
			honest:     true,
			rng:        rand.New(rand.NewSource(spec.seed + int64(i)*0x9e3779b97f4a7c + 1)),
			crashPoint: -1,
			stats:      sim.PeerStats{ID: id, Honest: true},
		}
		if isFaulty[id] {
			p.honest = false
			p.stats.Honest = false
			switch spec.fault {
			case sim.FaultCrash:
				if pt, ok := spec.crash[id]; ok {
					p.crashPoint = pt
				}
				p.impl = spec.newPeer(id)
			case sim.FaultByzantine:
				p.impl = spec.newByz(id, know)
			default:
				p.impl = spec.newPeer(id)
			}
		} else if cp := churnFor[id]; cp != nil {
			// Churn peers run the honest protocol but are accounted
			// faulty: they crash at their action count and (Rejoin)
			// resume warm from their persisted verified bits when the
			// chooser delivers the rejoin event.
			p.honest = false
			p.stats.Honest = false
			p.churn = cp
			p.crashPoint = cp.Point
			p.impl = spec.newPeer(id)
			if cp.Rejoin {
				e.churnLive++
			}
		} else {
			p.impl = spec.newPeer(id)
		}
		p.q = tier.NewPlane(i, &p.stats, p.churn != nil)
		e.peers = append(e.peers, p)
		if p.honest {
			e.live++
		}
		e.pending = append(e.pending, &cevent{kind: 1, to: id})
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				e.out.PanicValue = fmt.Sprint(r)
			}
		}()
		e.loop(choose)
	}()

	e.res.PerPeer = make([]sim.PeerStats, len(e.peers))
	for i, p := range e.peers {
		p.q.Settle(e.now)
		e.res.PerPeer[i] = p.stats
	}
	e.res.Events = e.steps
	if e.out.PanicValue != "" {
		e.res.Failures = append(e.res.Failures, "peer panic: "+e.out.PanicValue)
	}
	e.res.Finalize(input)
	if e.out.PanicValue != "" {
		e.res.Correct = false
	}
	e.out.Result = &e.res
	e.out.EventHash = e.hash
	e.out.Steps = e.steps
	return e.out
}

func (e *cengine) loop(choose chooser) {
	cap := e.spec.stepCap()
	for len(e.pending) > 0 && (e.live > 0 || e.churnLive > 0) {
		if e.steps >= cap {
			e.res.EventCapHit = true
			return
		}
		idx := 0
		if len(e.pending) > 1 {
			if len(e.pending) > e.out.MaxFanout {
				e.out.MaxFanout = len(e.pending)
			}
			idx = choose(len(e.out.Choices), len(e.pending))
			idx %= len(e.pending)
			if idx < 0 {
				idx += len(e.pending)
			}
			e.out.Choices = append(e.out.Choices, idx)
		}
		ev := e.pending[idx]
		e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
		e.step(ev)
	}
	if e.live > 0 {
		e.res.Deadlocked = true
	}
}

// step routes one chosen event: drop if the peer is gone, buffer if it
// has not started, otherwise dispatch (draining the pre-start buffer
// right after a delivered start event) — the exact des semantics.
func (e *cengine) step(ev *cevent) {
	p := e.peers[ev.to]
	if ev.kind == 6 {
		// Rejoin is the one event a crashed peer still receives.
		e.rejoin(p)
		return
	}
	if p.crashed || p.terminated {
		return
	}
	switch ev.kind {
	case 4, 5:
		// Source-tier bookkeeping: counts as a step (the engine's clock)
		// but bypasses crash-action accounting and pre-start buffering.
		e.steps++
		e.now = float64(e.steps)
		if ev.kind == 4 {
			e.srcDo(p, p.q.Admit(e.now, ev.call))
		} else {
			e.srcDo(p, p.q.Wake(e.now))
		}
		return
	}
	if !p.started && ev.kind != 1 {
		p.buffer = append(p.buffer, ev)
		return
	}
	delivered := e.dispatch(p, ev)
	if !delivered || ev.kind != 1 {
		return
	}
	for _, buf := range p.buffer {
		if p.crashed || p.terminated {
			break
		}
		e.dispatch(p, buf)
	}
	p.buffer = nil
}

// dispatch performs the crash-action check and delivers one event.
func (e *cengine) dispatch(p *cpeer, ev *cevent) bool {
	e.steps++
	e.now = float64(e.steps)
	if !e.act(p) {
		return false
	}
	e.current = p.id
	switch ev.kind {
	case 1:
		p.started = true
		e.observe("start", p.id, -1, "", 0)
		p.impl.Init(&cctx{e: e, p: p})
	case 2:
		e.observe("deliver", p.id, ev.from, msgType(ev.msg), ev.msg.SizeBits())
		p.impl.OnMessage(ev.from, ev.msg)
	case 3:
		if ev.call != nil {
			// The second success report of this call (see fetch).
			e.srcSuccess(p)
		}
		p.q.Learn(ev.qr)
		e.observe("qreply", p.id, -1, "", len(ev.qr.Indices))
		p.impl.OnQueryReply(ev.qr)
	}
	e.current = -1
	return true
}

// rejoin revives a crashed churn peer: a fresh protocol instance resumes
// warm from the persisted verified-index state (see cctx.Query). The
// recovered peer runs honestly to completion but stays accounted faulty.
func (e *cengine) rejoin(p *cpeer) {
	if !p.crashed || p.terminated || p.stats.Rejoined {
		return
	}
	e.steps++
	e.now = float64(e.steps)
	p.crashed = false
	p.q.Rejoin()
	p.crashPoint = -1
	p.actions = 0
	p.buffer = nil
	p.started = true
	p.impl = e.spec.newPeer(p.id)
	e.observe("rejoin", p.id, -1, "", 0)
	e.current = p.id
	p.impl.Init(&cctx{e: e, p: p})
	e.current = -1
}

// srcDo appends the query plane's verdict as a pending event: the chooser
// decides when a retry or a breaker wake lands, so the plane's times are
// ignored. A wake delivered early re-arms itself, and each delivery
// advances the step clock, so the wait always ends.
func (e *cengine) srcDo(p *cpeer, n qplane.Next) {
	switch n.Op {
	case qplane.Fetch:
		e.fetch(p, n.Call)
	case qplane.Retry:
		e.pending = append(e.pending, &cevent{kind: 4, to: p.id, call: n.Call})
	case qplane.Wake:
		e.pending = append(e.pending, &cevent{kind: 5, to: p.id})
	}
}

// fetch performs one source attempt at the current step clock. Failures
// are ruled on immediately (the choice engine has no deadlines — the
// chooser already controls when the retry lands). A success is reported
// to the breaker twice, here and when the reply is delivered: the pinned
// replay corpus records the event order that produces.
func (e *cengine) fetch(p *cpeer, call *qplane.Call) {
	qr, _, err := p.q.Fetch(e.now, call)
	if err != nil {
		kind := source.KindOf(err)
		e.observe("qfail", p.id, -1, kind.String(), len(call.Fetch))
		e.srcDo(p, p.q.Fail(e.now, call, kind))
		return
	}
	e.srcSuccess(p)
	e.pending = append(e.pending, &cevent{kind: 3, to: p.id, call: call, qr: qr})
}

// srcSuccess reports a source success; a closing breaker re-issues every
// parked call.
func (e *cengine) srcSuccess(p *cpeer) {
	flushed, _ := p.q.Success(e.now)
	for _, call := range flushed {
		e.pending = append(e.pending, &cevent{kind: 4, to: p.id, call: call})
	}
}

// act consumes one crash action; false means the peer just crashed.
func (e *cengine) act(p *cpeer) bool {
	if p.crashPoint < 0 {
		return true
	}
	p.actions++
	if p.actions > p.crashPoint {
		p.crashed = true
		p.stats.Crashed = true
		e.observe("crash", p.id, -1, "", 0)
		if p.churn != nil && p.churn.Rejoin && !p.stats.Rejoined {
			e.pending = append(e.pending, &cevent{kind: 6, to: p.id})
		}
		return false
	}
	return true
}

// cctx implements sim.Context for one peer of the choice engine.
type cctx struct {
	e *cengine
	p *cpeer
}

var _ sim.Context = (*cctx)(nil)

func (c *cctx) ID() sim.PeerID { return c.p.id }
func (c *cctx) N() int         { return c.e.spec.n }
func (c *cctx) T() int         { return c.e.spec.t }
func (c *cctx) L() int         { return c.e.spec.l }
func (c *cctx) MsgBits() int   { return c.e.spec.b }

func (c *cctx) active() bool {
	if c.e.current != c.p.id {
		panic(fmt.Sprintf("dst: context of peer %d used outside its handler (current=%d)",
			c.p.id, c.e.current))
	}
	return !c.p.crashed && !c.p.terminated
}

// Send implements sim.Context.
func (c *cctx) Send(to sim.PeerID, m sim.Message) {
	if !c.active() {
		return
	}
	if to < 0 || int(to) >= c.e.spec.n || to == c.p.id {
		return
	}
	if !c.e.act(c.p) {
		return
	}
	size := m.SizeBits()
	chunks := (size + c.e.spec.b - 1) / c.e.spec.b
	if chunks < 1 {
		chunks = 1
	}
	c.p.stats.MsgsSent += chunks
	c.p.stats.MsgBitsSent += size
	c.e.observe("send", c.p.id, to, msgType(m), size)
	c.e.pending = append(c.e.pending, &cevent{kind: 2, to: to, from: c.p.id, msg: m})
}

// Broadcast implements sim.Context.
func (c *cctx) Broadcast(m sim.Message) {
	for i := 0; i < c.e.spec.n; i++ {
		if sim.PeerID(i) != c.p.id {
			c.Send(sim.PeerID(i), m)
		}
	}
}

// Query implements sim.Context.
func (c *cctx) Query(tag int, indices []int) {
	if !c.active() {
		return
	}
	if !c.e.act(c.p) {
		return
	}
	p := c.p
	b := p.q.Begin(tag, indices)
	c.e.observe("query", p.id, -1, "", b.Charged)
	switch b.Kind {
	case qplane.Issue:
		// Through the (possibly faulty) source tier; the chooser decides
		// when the attempt — and hence its fault roll — happens.
		c.e.pending = append(c.e.pending, &cevent{kind: 4, to: p.id, call: b.Call})
	case qplane.WarmHit, qplane.Oracle:
		c.e.pending = append(c.e.pending, &cevent{kind: 3, to: p.id, qr: b.Reply})
	}
}

// Output implements sim.Context.
func (c *cctx) Output(out *bitarray.Array) {
	if !c.active() {
		return
	}
	c.p.stats.Output = out.Clone()
}

// Terminate implements sim.Context.
func (c *cctx) Terminate() {
	if !c.active() {
		return
	}
	c.p.terminated = true
	c.p.stats.Terminated = true
	c.p.stats.TermTime = c.e.now
	if c.p.honest {
		c.e.live--
	} else if c.p.churn != nil && c.p.churn.Rejoin {
		c.e.churnLive--
	}
	c.e.observe("terminate", c.p.id, -1, "", 0)
}

// Rand implements sim.Context.
func (c *cctx) Rand() *rand.Rand { return c.p.rng }

// Now implements sim.Context: the delivered-event count.
func (c *cctx) Now() float64 { return c.e.now }

// Logf implements sim.Context (the engine records no free-form trace;
// use the observer / drtrace JSONL instead).
func (c *cctx) Logf(string, ...any) {}
