// Package live executes DR-model protocols under real concurrency: worker
// goroutines serve the peers from a shared ready queue (as many workers as
// peers unless Spec.Workers says fewer), message and query latencies are
// wall-clock timers (virtual units scaled by TimeScale), and delivery
// interleavings come from the Go scheduler rather than a deterministic
// event queue.
//
// The point of this runtime is validation: a protocol that passes under
// package des might still harbor hidden assumptions about atomic handler
// execution ordering. Running the same sim.Peer implementations under true
// concurrency — with the race detector on — flushes those out. Executions
// are not reproducible; tests assert properties, not traces.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bitarray"
	"repro/internal/qplane"
	"repro/internal/sim"
)

// Runtime runs peers on worker goroutines with wall-clock delays.
type Runtime struct {
	// TimeScale converts one virtual time unit to wall time. The default
	// is 2ms, keeping unit-latency executions around a few hundred
	// milliseconds for typical protocols.
	TimeScale time.Duration
	// Deadline aborts the execution after this much wall time; peers
	// that have not terminated are reported as such. Default 30s.
	Deadline time.Duration
}

var _ sim.Runtime = (*Runtime)(nil)

// New returns a live runtime with default scaling.
func New() *Runtime {
	return &Runtime{TimeScale: 2 * time.Millisecond, Deadline: 30 * time.Second}
}

// Run implements sim.Runtime.
func (rt *Runtime) Run(spec *sim.Spec) (*sim.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	scale := rt.TimeScale
	if scale <= 0 {
		scale = 2 * time.Millisecond
	}
	deadline := rt.Deadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	// A spec-level deadline (virtual units) converts through the time
	// scale and tightens — never loosens — the runtime default.
	if spec.Deadline > 0 {
		if d := time.Duration(spec.Deadline * float64(scale)); d < deadline {
			deadline = d
		}
	}
	w := &world{
		spec:  spec,
		cfg:   spec.Config,
		input: spec.Config.ResolveInput(),
		scale: scale,
		start: time.Now(),
		peers: make([]*livePeer, spec.Config.N),
		ready: newReadyQueue(),
		done:  make(chan struct{}),
	}
	tier := qplane.NewTier(w.input, w.cfg.N, w.cfg.Seed, spec.SourceFaults, spec.Mirrors, spec.SourcePolicy)
	var know *sim.Knowledge
	if spec.Faults.Model == sim.FaultByzantine {
		know = &sim.Knowledge{
			Input:  w.input,
			Config: w.cfg,
			Faulty: append([]sim.PeerID(nil), spec.Faults.Faulty...),
			Rand:   rand.New(rand.NewSource(w.cfg.Seed ^ 0x0bad5eed)),
			Shared: make(map[string]any),
		}
	}
	for i := 0; i < w.cfg.N; i++ {
		id := sim.PeerID(i)
		p := &livePeer{
			w:          w,
			id:         id,
			honest:     true,
			crashPoint: -1,
			rng:        rand.New(rand.NewSource(w.cfg.Seed + int64(i)*0x9e3779b97f4a7c + 1)),
			stats:      sim.PeerStats{ID: id, Honest: true},
		}
		if spec.Faults.IsFaulty(id) {
			p.honest = false
			p.stats.Honest = false
			switch spec.Faults.Model {
			case sim.FaultCrash:
				p.crashPoint = spec.Faults.Crash.CrashPoint(id)
				p.impl = spec.NewPeer(id)
			case sim.FaultByzantine:
				p.impl = spec.Faults.NewByzantine(id, know)
			}
		} else if cp := spec.Faults.ChurnFor(id); cp != nil {
			// Churn peers run the honest protocol but are accounted
			// faulty: they crash at their action count and (Downtime ≥ 0)
			// later rejoin warm from their persisted verified bits.
			p.honest = false
			p.stats.Honest = false
			p.churn = cp
			p.crashPoint = cp.CrashAfter
			p.impl = spec.NewPeer(id)
			if cp.Downtime >= 0 {
				w.churnLive++
			}
		} else {
			p.impl = spec.NewPeer(id)
		}
		p.q = tier.NewPlane(i, &p.stats, p.churn != nil)
		w.peers[i] = p
		w.liveHonest += btoi(p.honest)
	}
	expired := w.runAll(deadline)

	res := &sim.Result{PerPeer: make([]sim.PeerStats, w.cfg.N)}
	res.DeadlineHit = expired
	for i, p := range w.peers {
		p.mu.Lock()
		p.q.Settle(w.now())
		res.PerPeer[i] = p.stats
		p.mu.Unlock()
	}
	res.Finalize(w.input)
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

type deliveryKind int

const (
	dlMessage deliveryKind = iota + 1
	dlQueryReply
)

type delivery struct {
	kind deliveryKind
	from sim.PeerID
	msg  sim.Message
	qr   sim.QueryReply
}

type world struct {
	spec  *sim.Spec
	cfg   sim.Config
	input *bitarray.Array
	scale time.Duration
	start time.Time
	peers []*livePeer
	// ready is the run queue the workers serve peers from.
	ready *readyQueue

	mu         sync.Mutex
	liveHonest int // honest peers not yet terminated
	churnLive  int // rejoinable churn peers not yet terminated
	done       chan struct{}
	doneOnce   sync.Once

	timers sync.WaitGroup
}

func (w *world) now() float64 {
	return float64(time.Since(w.start)) / float64(w.scale)
}

// honestDone records an honest termination, churnDone a rejoinable churn
// peer's. The run ends when both counts drain: honest peers for
// correctness, rejoinable churn peers because recovering to completion
// is exactly what churn executions assert.
func (w *world) honestDone() { w.countDone(true) }
func (w *world) churnDone()  { w.countDone(false) }

func (w *world) countDone(honest bool) {
	w.mu.Lock()
	if honest {
		w.liveHonest--
	} else {
		w.churnLive--
	}
	last := w.liveHonest == 0 && w.churnLive == 0
	w.mu.Unlock()
	if last {
		w.doneOnce.Do(func() { close(w.done) })
	}
}

// runAll serves the peers until the last honest termination or the
// deadline; it reports whether the deadline expired with honest peers
// still running. Worker goroutines take peers from the shared ready queue.
// A peer becomes ready when it has started and has pending work; the
// queued flag guarantees at most one worker serves a given peer at a time,
// preserving the single-threaded-per-peer invariant the Context
// implementation relies on. Spec.Workers > 1 multiplexes the peers over
// that many workers, which is what lets one process carry far more peers
// than it could afford goroutine stacks for; otherwise there is a worker
// per peer, so no ready peer ever waits for another's handler.
func (w *world) runAll(deadline time.Duration) bool {
	workers := w.spec.Workers
	if workers <= 1 {
		workers = len(w.peers)
	}
	for _, p := range w.peers {
		// Staggered starts per the delay policy.
		startDelay := w.spec.Delays.StartDelay(p.id)
		w.after(startDelay, func() { p.enqueueStart() })
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, ok := w.ready.pop()
				if !ok {
					return
				}
				p.serve()
			}
		}()
	}

	expired := false
	select {
	case <-w.done:
	case <-time.After(deadline):
		w.mu.Lock()
		expired = w.liveHonest > 0 || w.churnLive > 0
		w.mu.Unlock()
	}
	// Stop all peers and wait for the workers plus in-flight timers.
	for _, p := range w.peers {
		p.stop()
	}
	w.ready.close()
	wg.Wait()
	w.timers.Wait()
	return expired
}

// readyQueue is the scheduler's unbounded FIFO of peers with work.
type readyQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*livePeer
	closed bool
}

func newReadyQueue() *readyQueue {
	q := &readyQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *readyQueue) push(p *livePeer) {
	q.mu.Lock()
	q.items = append(q.items, p)
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks for the next ready peer; ok is false once the queue is
// closed and drained.
func (q *readyQueue) pop() (*livePeer, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	p := q.items[0]
	q.items = q.items[1:]
	return p, true
}

func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// after schedules fn once the scaled delay elapses, tracking the timer so
// Run can join all goroutines before returning (no fire-and-forget).
func (w *world) after(units float64, fn func()) {
	if units < 0 {
		units = 0
	}
	w.timers.Add(1)
	d := time.Duration(units * float64(w.scale))
	time.AfterFunc(d, func() {
		defer w.timers.Done()
		fn()
	})
}

// livePeer is one peer's goroutine-facing state. The worker serving the
// peer is the only goroutine that touches impl and stats (except for the
// final collection after the workers exit), so protocol code stays
// lock-free.
type livePeer struct {
	w          *world
	id         sim.PeerID
	honest     bool
	impl       sim.Peer
	rng        *rand.Rand
	crashPoint int

	mu      sync.Mutex
	queue   []delivery
	started bool
	stopped bool
	// queued marks the peer as in the ready queue or being served (at most
	// one worker touches a peer at a time), inited latches the Init call.
	queued bool
	inited bool

	// q is the peer's query plane (package qplane). Its transitions run
	// under mu — timer callbacks (retries, breaker wakes) drive it
	// alongside the serving goroutine — except Fetch, which touches no
	// plane state, and Learn, which only the serving goroutine calls. The
	// warm state hands off between churn incarnations through mu (rejoin
	// runs under it before the new incarnation starts).
	q *qplane.Plane

	// Churn (nil without a churn schedule for this peer).
	churn *sim.ChurnPeer

	// Fields below are owned by the serving worker (guarded by mu only
	// for the final stats snapshot in Run).
	crashed    bool
	terminated bool
	actions    int
	stats      sim.PeerStats
}

var _ sim.Context = (*livePeer)(nil)

func (p *livePeer) enqueueStart() {
	p.mu.Lock()
	p.started = true
	p.markReady()
	p.mu.Unlock()
}

func (p *livePeer) enqueue(d delivery) {
	p.mu.Lock()
	p.queue = append(p.queue, d)
	p.markReady()
	p.mu.Unlock()
}

// markReady (mu held) hands the peer to the scheduler when it has work: a
// pending Init once started, or queued deliveries. The queued flag makes
// the hand-off single-shot — serve() clears it under mu after draining,
// so no wakeup is lost and no two workers ever share a peer.
func (p *livePeer) markReady() {
	if p.queued || p.stopped || p.crashed || p.terminated || !p.started {
		return
	}
	if p.inited && len(p.queue) == 0 {
		return
	}
	p.queued = true
	p.w.ready.push(p)
}

// serve runs one scheduling quantum: Init if still owed, then drain the
// delivery queue. It returns with queued cleared under the same lock that
// checked for emptiness, so a concurrent enqueue re-queues the peer.
func (p *livePeer) serve() {
	p.mu.Lock()
	if p.stopped || p.crashed || p.terminated {
		p.queued = false
		p.mu.Unlock()
		return
	}
	if !p.inited {
		p.inited = true
		p.mu.Unlock()
		if p.countAction() {
			p.impl.Init(p)
		}
		// A crash on the start action falls through to the drain loop,
		// which sees it and returns.
	} else {
		p.mu.Unlock()
	}
	for {
		p.mu.Lock()
		if p.stopped || p.crashed || p.terminated || len(p.queue) == 0 {
			p.queued = false
			p.mu.Unlock()
			return
		}
		d := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		if !p.dispatch(d) {
			return
		}
	}
}

func (p *livePeer) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

// countAction advances the adversary's action clock (start, sends,
// queries, deliveries — matching the des and socket runtimes) and
// reports whether the peer survives this action; crossing the crash
// point crashes the peer and drops the action.
func (p *livePeer) countAction() bool {
	if !p.honest && p.crashPoint >= 0 {
		p.actions++
		if p.actions > p.crashPoint {
			p.setCrashed()
			return false
		}
	}
	return true
}

// dispatch applies the crash check and invokes the handler; it reports
// whether the peer is still running.
func (p *livePeer) dispatch(d delivery) bool {
	if !p.countAction() {
		return false
	}
	switch d.kind {
	case dlMessage:
		p.impl.OnMessage(d.from, d.msg)
	case dlQueryReply:
		p.q.Learn(d.qr)
		p.impl.OnQueryReply(d.qr)
	}
	return true
}

func (p *livePeer) setCrashed() {
	p.mu.Lock()
	p.crashed = true
	p.stats.Crashed = true
	rejoin := p.churn != nil && p.churn.Downtime >= 0 && !p.stats.Rejoined
	p.mu.Unlock()
	if rejoin {
		p.w.after(p.churn.Downtime, p.rejoin)
	}
}

func (p *livePeer) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed || p.terminated
}

// --- sim.Context implementation (called from the serving worker) ---

// ID implements sim.Context.
func (p *livePeer) ID() sim.PeerID { return p.id }

// N implements sim.Context.
func (p *livePeer) N() int { return p.w.cfg.N }

// T implements sim.Context.
func (p *livePeer) T() int { return p.w.cfg.T }

// L implements sim.Context.
func (p *livePeer) L() int { return p.w.cfg.L }

// MsgBits implements sim.Context.
func (p *livePeer) MsgBits() int { return p.w.cfg.MsgBits }

// Send implements sim.Context.
func (p *livePeer) Send(to sim.PeerID, m sim.Message) {
	if p.isDead() {
		return
	}
	if to < 0 || int(to) >= p.w.cfg.N || to == p.id {
		return
	}
	if !p.countAction() {
		return
	}
	size := m.SizeBits()
	chunks := (size + p.w.cfg.MsgBits - 1) / p.w.cfg.MsgBits
	if chunks < 1 {
		chunks = 1
	}
	p.mu.Lock()
	p.stats.MsgsSent += chunks
	p.stats.MsgBitsSent += size
	p.mu.Unlock()
	delay := p.w.spec.Delays.MessageDelay(p.id, to, p.w.now(), size)
	target := p.w.peers[to]
	// Chunked transmission, as in the des runtime: the payload arrives
	// once all ⌈size/b⌉ b-bit messages have crossed the link.
	p.w.after(delay*float64(chunks), func() { target.enqueue(delivery{kind: dlMessage, from: p.id, msg: m}) })
}

// Broadcast implements sim.Context.
func (p *livePeer) Broadcast(m sim.Message) {
	for i := 0; i < p.w.cfg.N; i++ {
		if sim.PeerID(i) != p.id {
			p.Send(sim.PeerID(i), m)
		}
	}
}

// Query implements sim.Context.
func (p *livePeer) Query(tag int, indices []int) {
	if p.isDead() {
		return
	}
	if !p.countAction() {
		return
	}
	p.mu.Lock()
	b := p.q.Begin(tag, indices)
	p.mu.Unlock()
	switch b.Kind {
	case qplane.Issue:
		// Through the (possibly faulty, possibly mirrored) source tier.
		p.issueCall(b.Call)
	case qplane.WarmHit:
		// Answered locally, no source round trip.
		p.w.after(0, func() { p.enqueue(delivery{kind: dlQueryReply, qr: b.Reply}) })
	case qplane.Oracle:
		p.w.after(p.queryDelay(), func() { p.enqueue(delivery{kind: dlQueryReply, qr: b.Reply}) })
	}
}

// Output implements sim.Context.
func (p *livePeer) Output(out *bitarray.Array) {
	if p.isDead() {
		return
	}
	c := out.Clone()
	p.mu.Lock()
	p.stats.Output = c
	p.mu.Unlock()
}

// Terminate implements sim.Context.
func (p *livePeer) Terminate() {
	p.mu.Lock()
	if p.terminated || p.crashed {
		p.mu.Unlock()
		return
	}
	p.terminated = true
	p.stats.Terminated = true
	p.stats.TermTime = p.w.now()
	p.mu.Unlock()
	if p.honest {
		p.w.honestDone()
	} else if p.churn != nil && p.churn.Downtime >= 0 {
		p.w.churnDone()
	}
}

// Rand implements sim.Context.
func (p *livePeer) Rand() *rand.Rand { return p.rng }

// Now implements sim.Context.
func (p *livePeer) Now() float64 { return p.w.now() }

// Logf implements sim.Context.
func (p *livePeer) Logf(format string, args ...any) {
	if p.w.spec.Trace != nil {
		fmt.Fprintf(p.w.spec.Trace, "t=%.3f peer %d: "+format+"\n",
			append([]any{p.w.now(), p.id}, args...)...)
	}
}
