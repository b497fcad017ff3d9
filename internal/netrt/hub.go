package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitarray"
	"repro/internal/sim"
	"repro/internal/source"
)

// hubPeer is the hub's per-peer state. Its link outlives any single
// connection: sequence numbers, the retransmit outbox, and dedup state
// persist across flaps and reconnects, which is what makes duplicated or
// replayed frames idempotent.
type hubPeer struct {
	id sim.PeerID

	// mu guards the link and everything below it. The link's outbox is the
	// reliable hub→peer stream: relayed MSGs and the source's QREPLY,
	// QPROOF and QERR frames, numbered together: the only queue toward the
	// peer.
	mu sync.Mutex
	link

	// srcServes counts query arrivals from this peer; it is the Ordinal
	// fed to the source fault plan, so every retried serve rolls fresh
	// fault decisions (a failure rate < 1 answers eventually).
	srcServes uint64
	// Fault-plan events on deliveries toward this peer.
	planDropped, planDuped int

	output     *bitarray.Array
	terminated bool
	termTime   float64
	lastKind   byte
	lastFrame  time.Time
	// connected reports that a connection from the peer was ever installed.
	connected bool
}

type hub struct {
	cfg   Config
	res   Resilience
	idle  time.Duration
	plan  *FaultPlan
	input *bitarray.Array
	// src answers queries; the trusted array, wrapped in the source fault
	// plan when one is configured (Wrap is a no-op otherwise).
	src source.Source
	// mirror, when non-nil, is the untrusted fleet QUERY frames are
	// served from; QUERYSRC fallbacks bypass it through src.
	mirror *source.Mirrored
	// addr is the one address every peer dials; the listener on it is ln.
	addr   string
	start  time.Time
	expect int
	// writes tallies what the connection writers did (Hub.ShardStats).
	writes writeCounters

	// fates holds each peer's fate, nil for an honest peer. A faulty
	// peer's termination never counts toward the completion quota (a
	// crashing peer may finish before its crash; ending the run on its
	// DONE would abandon honest peers mid-protocol) — unless its fate
	// rejoins: such a peer still owes a DONE (see owesDone).
	fates []*sim.Fate
	// peers holds link state for every non-absent peer; the map is
	// fully built in newHub and never mutated, so reads need no lock.
	peers map[sim.PeerID]*hubPeer
	// met is the shared metrics bundle and ev the run's event stream;
	// each is nil when disabled (every method is nil-safe).
	met *netMetrics
	ev  *events

	stop chan struct{}

	mu sync.Mutex
	// ln is the listener, nil while an outage has it down or once closed.
	ln net.Listener
	// timers holds the pending flap and outage triggers so close can
	// cancel them. A delayed delivery's timer is not kept (see after).
	timers  []*time.Timer
	done    int
	closed  bool
	allDone chan struct{}
	wg      sync.WaitGroup
}

// newHub starts a hub whose clock (the fault plan's, the source's and
// termination times) starts at start.
func newHub(cfg Config, input *bitarray.Array, met *netMetrics, ev *events, start time.Time) (*hub, error) {
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netrt: listen: %w", err)
	}
	h := &hub{
		cfg:     cfg,
		res:     cfg.Resilience.withDefaults(),
		idle:    cfg.idleTimeout(),
		plan:    cfg.Faults,
		input:   input,
		src:     source.Wrap(source.NewTrusted(input), cfg.SourceFaults),
		addr:    ln.Addr().String(),
		ln:      ln,
		start:   start,
		fates:   sim.Faults{Fates: cfg.Fates}.ByPeer(cfg.N),
		peers:   make(map[sim.PeerID]*hubPeer, cfg.N),
		met:     met,
		ev:      ev,
		stop:    make(chan struct{}),
		allDone: make(chan struct{}),
	}
	if cfg.Mirrors.Enabled() {
		h.mirror = source.NewMirrored(input, cfg.Mirrors, cfg.N, h.src)
	}
	for i, f := range h.fates {
		if h.owesDone(sim.PeerID(i)) {
			h.expect++
		}
		if !f.Absent() {
			h.peers[sim.PeerID(i)] = &hubPeer{id: sim.PeerID(i), link: link{met: met, peer: i}}
		}
	}
	h.wg.Add(2)
	go h.acceptLoop(ln)
	go h.tickLoop()
	if h.plan != nil {
		h.armPlan()
	}
	return h, nil
}

func (h *hub) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serve(conn)
		}()
	}
}

// rejectConn permanently refuses a connection (unknown or absent peer): the REJECT frame tells the client to stop redialing.
func (h *hub) rejectConn(conn *frameConn) {
	_ = writeHandshake(conn, kReject, framePayload{})
	conn.Close()
}

func (h *hub) serve(nc net.Conn) {
	// One reader for the connection's whole life: whatever arrived in the
	// same segment as HELLO is in its buffer for the loop below.
	conn := newFrameConn(nc, h.idle)
	kind, _, payload, err := conn.readFrame()
	if err != nil || kind != kHello {
		conn.Close()
		return
	}
	h.met.frame(sideHub, dirRx, kind, len(payload))
	id64, n := binary.Uvarint(payload)
	// A flag byte may trail the id (bit 1: resume request from a rejoined
	// churn peer); anything beyond it is reserved and ignored.
	resume := n > 0 && len(payload) > n && payload[n]&1 != 0
	var hp *hubPeer
	if n > 0 && id64 < uint64(h.cfg.N) {
		hp = h.peers[sim.PeerID(id64)]
	}
	if hp == nil {
		h.rejectConn(conn)
		return
	}
	hp.mu.Lock()
	if resume {
		// Resume handshake: realign both stream positions for the rejoined
		// incarnation (stream.resumeBody). RESUME is owed first, so it
		// reaches the client before ROOT or any replay.
		body := hp.resumeBody()
		conn.owe(kResume, 0, rawPayload(body))
	}
	if h.mirror != nil {
		// The commitment precedes any reply on this connection, so the
		// client always verifies against a known root.
		root := h.mirror.Root()
		if f := (outFrame{kind: kRoot, p: rawPayload(root[:])}); h.fate(hp, f, 0) {
			conn.owe(kRoot, 0, rawPayload(root[:]))
		}
	}
	old := hp.install(conn)
	hp.connected = true
	hp.mu.Unlock()
	if old != nil {
		old.Close()
		old.poke()
	}
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		conn.Close() // raced the shutdown sweep
		return
	}
	h.wg.Add(1) // serve's own count is held, so the hub cannot be waiting yet
	go h.writer(hp, conn)
	conn.poke()

	for {
		kind, seq, payload, err := conn.readFrame()
		if err != nil {
			// Read error or idle deadline: the link is dead. Drop it and
			// let the peer's reconnect (or the run timeout) sort it out.
			conn.Close()
			hp.mu.Lock()
			if hp.conn == conn {
				hp.conn = nil
			}
			hp.mu.Unlock()
			conn.poke()
			return
		}
		h.met.frame(sideHub, dirRx, kind, len(payload))
		h.handle(hp, conn, kind, seq, payload)
	}
}

// handle dispatches one frame hp sent on conn after HELLO: an ACK trims the
// hub's outbox; a numbered frame (MSG, BCAST, QUERY, QUERYSRC, DONE) is
// admitted, deduplicated and acked, and a fresh one routed or answered.
// payload is conn's read buffer: whatever outlives the call is copied.
func (h *hub) handle(hp *hubPeer, conn *frameConn, kind byte, seq uint64, payload []byte) {
	switch kind {
	case kPing:
		// Heartbeat: reading it already refreshed the deadline.
	case kAck:
		if v, n := binary.Uvarint(payload); n > 0 {
			hp.mu.Lock()
			hp.acked(v)
			hp.mu.Unlock()
		}
	case kMsg, kBcast, kQuery, kQuerySrc, kDone:
		// One clock reading a frame: it stamps the frame's arrival and
		// the first send of whatever the hub answers it with.
		now := time.Now()
		hp.mu.Lock()
		fresh := hp.admit(seq)
		if fresh {
			hp.lastKind, hp.lastFrame = kind, now
		}
		hp.mu.Unlock()
		if !fresh {
			return
		}
		switch kind {
		case kMsg, kBcast:
			h.route(hp, kind, payload)
		case kQuery, kQuerySrc: // QUERYSRC, the fallback, bypasses the mirrors
			if kind == kQuery && h.mirror != nil {
				h.answerMirrorQuery(hp, conn, payload, now)
			} else {
				h.answerQuery(hp, conn, payload, now)
			}
		case kDone:
			h.markDone(hp, payload)
		}
	}
}

// route relays a MSG (payload: uvarint dest, wire bytes) or a BCAST
// (payload: uvarint k, wire bytes; the recipients are the first k peers in
// id order, the sender skipped) as one MSG per recipient, its number
// rewritten to the sender. Each present recipient's reliable stream gets
// a MSG, all of them holding one copy of the body — payload is the
// connection's read buffer. A BCAST naming no recipient, or more than
// there are, is refused. M is the sender's client's to charge, at its
// Send.
func (h *hub) route(src *hubPeer, kind byte, payload []byte) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return
	}
	body := payload[n:]
	to, k := v, uint64(1)
	if kind == kBcast {
		if v == 0 || v >= uint64(h.cfg.N) {
			return
		}
		to, k = 0, v
	}
	var shared []byte
	for ; k > 0 && to < uint64(h.cfg.N); to++ {
		if kind == kBcast && to == uint64(src.id) {
			continue
		}
		k--
		dest := h.peers[sim.PeerID(to)]
		if dest == nil {
			continue // absent forever: undeliverable
		}
		if shared == nil {
			shared = bytes.Clone(body)
		}
		h.send(dest, kMsg, numPayload(uint64(src.id), shared))
	}
}

// send appends a frame to hp's reliable stream (link.send).
func (h *hub) send(hp *hubPeer, kind byte, p framePayload) {
	hp.mu.Lock()
	hp.link.send(kind, p)
	hp.mu.Unlock()
}

// writer is conn's one writer, from serve's install until conn is no
// longer hp's, a write fails, or the hub stops.
func (h *hub) writer(hp *hubPeer, conn *frameConn) {
	defer h.wg.Done()
	var w wbuf
	conn.writeLoop(h.stop, func() bool { return h.pass(hp, conn, &w) })
}

// pass writes what collect gathers; false ends the writer.
func (h *hub) pass(hp *hubPeer, conn *frameConn, w *wbuf) bool {
	var live bool
	if w.frames, live = h.collect(hp, conn, w.frames[:0]); !live {
		return false
	}
	for _, f := range w.frames {
		h.met.frame(sideHub, dirTx, f.kind, f.p.len())
	}
	n, err := w.write(conn, h.idle)
	h.writes.enqueued.Add(int64(n))
	switch {
	case err != nil:
		h.writes.writeErrs.Add(1)
		h.met.writerEvent("write_err", 1)
		return false
	case n > 0:
		h.writes.written.Add(int64(n))
		h.writes.flushes.Add(1)
		h.met.writerEvent("written", n)
		h.met.writerBatch(n)
	}
	return true
}

// writeCounters are the connection writers' tallies, kept beside the
// metrics so a hub without a registry still reports them.
type writeCounters struct {
	enqueued  atomic.Int64 // frames a writer pass took or dropped
	written   atomic.Int64 // frames that reached a socket write
	dropped   atomic.Int64 // frames still owed to a connection that went away
	writeErrs atomic.Int64 // writes that failed
	flushes   atomic.Int64 // writer passes that wrote at least one frame
}

// collect appends what conn owes hp to dst, outbox frames put to the fault
// plan; once conn is no longer hp's it counts what conn owed as dropped.
func (h *hub) collect(hp *hubPeer, conn *frameConn, dst []outFrame) ([]outFrame, bool) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	now := time.Now()
	ctl := len(dst) + len(conn.owed)
	dst, mine := hp.take(conn, dst, now, now.Add(-h.res.RTO))
	if !mine {
		if n := len(conn.owed); n > 0 {
			h.writes.enqueued.Add(int64(n))
			h.writes.dropped.Add(int64(n))
			h.met.writerEvent("conn_down", n)
		}
		return dst, false
	}
	kept := dst[:ctl]
	for _, f := range dst[ctl:] {
		if h.fate(hp, f, f.attempt-1) {
			kept = append(kept, f)
		}
	}
	return kept, true
}

// after runs f in d unless the hub has stopped by then. The timer is not
// kept: once it has fired, it and the frame its closure holds are garbage,
// and a hub that closes first turns f into a no-op instead of cancelling.
func (h *hub) after(d time.Duration, f func()) {
	time.AfterFunc(d, func() {
		select {
		case <-h.stop:
		default:
			f()
		}
	})
}

// answerQuery serves the source: decode the header's index list into
// conn's decode buffer, route the fetch through the source tier (which
// keeps no Request.Indices past Fetch), and reply with the requested bits.
// Replies ride the peer's reliable stream beside its MSGs, so a reply the
// network loses is retransmitted by the hub. An injected source failure
// comes back as a QERR frame instead, so the client learns of active
// refusals without waiting out its silence deadline. Q is the client's to
// charge, at its Query.
func (h *hub) answerQuery(hp *hubPeer, conn *frameConn, payload []byte, now time.Time) {
	_, indices, hdrLen, ok := decodeQuery(conn.indices, payload, h.cfg.L)
	if !ok {
		return
	}
	conn.indices = indices
	for _, idx := range indices {
		if idx < 0 || idx >= h.cfg.L {
			return
		}
	}
	hdr := payload[:hdrLen] // echoed verbatim: the client matches replies by these bytes
	hp.mu.Lock()
	hp.srcServes++
	serve := hp.srcServes
	hp.mu.Unlock()
	rep, err := h.src.Fetch(source.Request{
		Peer:    int(hp.id),
		Indices: indices,
		Ordinal: serve,
		Attempt: 1,
		Now:     now.Sub(h.start).Seconds(),
	})
	if err != nil {
		kind := source.KindOf(err)
		if kind == source.KindTimeout {
			// A lost reply: stay silent and let the client's query
			// deadline discover it.
			return
		}
		out := append(make([]byte, 0, hdrLen+1), hdr...)
		out = append(out, byte(kind))
		h.send(hp, kQErr, rawPayload(out))
		return
	}
	n := rep.Bits.EncodedLen()
	out := append(make([]byte, 0, hdrLen+binary.MaxVarintLen64+n), hdr...)
	out = binary.AppendUvarint(out, uint64(n))
	out = rep.Bits.AppendTo(out)
	if rep.Latency > 0 {
		// Injected reply latency: the reply is still inside the source, so
		// it joins the stream only when it leaves — a retransmit tick must
		// not send it early — and then crosses the network like any reply.
		h.after(time.Duration(rep.Latency*float64(time.Second)), func() {
			h.send(hp, kQReply, rawPayload(out))
		})
		return
	}
	h.send(hp, kQReply, rawPayload(out))
}

// answerMirrorQuery serves a QUERY from the mirror fleet: pick the
// seeded mirror for this serve, forward the covering leaf-range request,
// and put its (possibly Byzantine) proof-carrying reply on the wire
// verbatim. Verification happens on the client; the hub never vouches for
// a mirror's bits. The fleet is asked
// for a leaf span, so the header is scanned for its bounds, not decoded.
func (h *hub) answerMirrorQuery(hp *hubPeer, conn *frameConn, payload []byte, now time.Time) {
	_, count, hdrLen, lo, hi, ok := scanQuery(payload, h.cfg.L)
	if !ok {
		return
	}
	if count == 0 {
		h.answerQuery(hp, conn, payload, now)
		return
	}
	if lo < 0 || hi >= h.cfg.L {
		return
	}
	hp.mu.Lock()
	hp.srcServes++
	serve := hp.srcServes
	hp.mu.Unlock()
	leafLo, leafHi := h.mirror.Params().LeafSpan(lo, hi)
	rep := h.mirror.ServeMirror(source.RangeRequest{
		Peer: int(hp.id), Ordinal: serve, LeafLo: leafLo, LeafHi: leafHi,
	})
	h.send(hp, kQProof, rawPayload(encodeProofReply(payload[:hdrLen], rep)))
}

func (h *hub) markDone(hp *hubPeer, payload []byte) {
	n64, n := binary.Uvarint(payload)
	if n <= 0 || int(n64) > len(payload[n:]) {
		return
	}
	out, err := bitarray.FromBytes(payload[n : n+int(n64)])
	if err != nil {
		return
	}
	hp.mu.Lock()
	already := hp.terminated
	hp.terminated = true
	hp.output = out
	hp.termTime = time.Since(h.start).Seconds()
	hp.mu.Unlock()
	if already || !h.owesDone(hp.id) {
		return
	}
	h.mu.Lock()
	h.done++
	fin := h.done >= h.expect && !h.closed
	h.mu.Unlock()
	if fin {
		close(h.allDone)
	}
}

// tickLoop asks every writer each tick to resend what is unacked past the
// RTO, making lossy links reliable, and to ping every third of the idle
// window, so read deadlines fire only on dead links.
func (h *hub) tickLoop() {
	defer h.wg.Done()
	pingEvery := h.idle / 3
	if pingEvery <= 0 {
		pingEvery = time.Second
	}
	period := min(h.res.RTO/2, 50*time.Millisecond, pingEvery)
	if period <= 0 {
		period = 50 * time.Millisecond
	}
	tk := time.NewTicker(period)
	defer tk.Stop()
	lastPing := time.Now()
	for {
		var now time.Time
		select {
		case <-h.stop:
			return
		case now = <-tk.C:
		}
		ping := now.Sub(lastPing) >= pingEvery
		if ping {
			lastPing = now
		}
		for _, hp := range h.peers {
			hp.mu.Lock()
			hp.tick(ping)
			hp.mu.Unlock()
		}
	}
}

// owesDone reports whether the run waits for id's DONE: id is honest, or
// its fate rejoins, so a run only ends once recovered peers have actually
// finished the download.
func (h *hub) owesDone(id sim.PeerID) bool {
	return h.fates[id] == nil || h.fates[id].Rejoins()
}

// timeoutError snapshots the unterminated honest peers for the run's
// deadline report.
func (h *hub) timeoutError(after time.Duration) *TimeoutError {
	e := &TimeoutError{After: after}
	for i := 0; i < h.cfg.N; i++ {
		id := sim.PeerID(i)
		if !h.owesDone(id) {
			continue
		}
		hp := h.peers[id]
		hp.mu.Lock()
		term := hp.terminated
		pp := PendingPeer{ID: id, Connected: hp.conn != nil,
			Unacked: len(hp.out.unacked()), AckBase: hp.out.base()}
		if !hp.lastFrame.IsZero() {
			pp.LastFrame = kindName(hp.lastKind)
			pp.LastFrameAge = time.Since(hp.lastFrame)
		}
		hp.mu.Unlock()
		if !term {
			e.Pending = append(e.Pending, pp)
		}
	}
	var stacks bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
	e.Stacks = stacks.Bytes()
	return e
}

func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	timers := h.timers
	h.timers = nil
	ln := h.ln
	h.ln = nil
	h.mu.Unlock()
	close(h.stop)
	for _, t := range timers {
		t.Stop()
	}
	if ln != nil {
		ln.Close()
	}
	for _, hp := range h.peers {
		hp.mu.Lock()
		conn := hp.conn
		hp.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
	h.wg.Wait()
}

// result completes the clients' per-peer stats with the hub's half:
// fault-plan and dedup counters, and what each peer output.
func (h *hub) result(per []sim.PeerStats) *sim.Result {
	res := &sim.Result{PerPeer: per}
	for i := range per {
		id := sim.PeerID(i)
		ps := &per[i]
		ps.ID, ps.Honest = id, h.fates[id] == nil
		// A churn peer's client records its own crash; the hub knows
		// which peers never connected. A crash fate that never connected
		// ran no action, as an absent peer runs none.
		ps.Crashed = ps.Crashed || h.peers[id] == nil
		if hp := h.peers[id]; hp != nil {
			hp.mu.Lock()
			if f := h.fates[id]; f != nil && f.CrashAfter >= 0 && !hp.connected {
				ps.Crashed = true
			}
			ps.Terminated = hp.terminated
			ps.TermTime = hp.termTime
			ps.Output = hp.output
			ps.DupFramesDropped += hp.dups
			ps.PlanDropped = hp.planDropped
			ps.PlanDuped = hp.planDuped
			hp.mu.Unlock()
		}
	}
	return res
}
