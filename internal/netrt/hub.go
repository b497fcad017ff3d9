package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
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
	// killed marks a KillAfter casualty: reconnects are refused.
	killed bool

	msgsSent int
	msgBits  int
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
	// shards are the hub's listener units; peer i belongs to shard
	// i % len(shards). Built once in newHub, never mutated.
	shards []*hubShard
	start  time.Time
	expect int

	// faulty marks absent, killed, and churning peers: their terminations
	// never count toward the completion quota (a killed peer may finish
	// before its kill fires; ending the run on its DONE would abandon
	// honest peers mid-protocol) — except the rejoining subset below.
	faulty map[sim.PeerID]bool
	// rejoining marks churn peers with a rejoin scheduled (Downtime ≥ 0):
	// faulty, but still expected to DONE, so the quota counts them.
	rejoining map[sim.PeerID]bool
	// peers holds link state for every non-absent peer; the map is
	// fully built in newHub and never mutated, so reads need no lock.
	peers map[sim.PeerID]*hubPeer
	// met is the shared observability bundle; nil when disabled (every
	// method is nil-safe).
	met *netMetrics

	stop chan struct{}

	mu sync.Mutex
	// timers holds the pending kill, flap and shard-bounce triggers so close
	// can cancel them. A delayed delivery's timer is not kept (see after).
	timers  []*time.Timer
	done    int
	closed  bool
	allDone chan struct{}
	wg      sync.WaitGroup
}

func newHub(cfg Config, input *bitarray.Array, met *netMetrics) (*hub, error) {
	nShards := cfg.shards()
	shards := make([]*hubShard, nShards)
	for i := range shards {
		ln, err := listen("127.0.0.1:0")
		if err != nil {
			for _, s := range shards[:i] {
				s.closeListener()
			}
			return nil, fmt.Errorf("netrt: listen shard %d: %w", i, err)
		}
		shards[i] = newHubShard(i, ln)
	}
	faulty := make(map[sim.PeerID]bool, len(cfg.Absent)+len(cfg.KillAfter)+len(cfg.Churn))
	absent := make(map[sim.PeerID]bool, len(cfg.Absent))
	for _, p := range cfg.Absent {
		faulty[p] = true
		absent[p] = true
	}
	for p := range cfg.KillAfter {
		faulty[p] = true
	}
	// Churn peers are faulty by definition, but the rejoining ones still
	// owe a DONE: the completion quota waits for them, so a run only ends
	// once recovered peers have actually finished the download.
	rejoining := make(map[sim.PeerID]bool, len(cfg.Churn))
	for _, cp := range cfg.Churn {
		faulty[cp.Peer] = true
		if cp.Downtime >= 0 {
			rejoining[cp.Peer] = true
		}
	}
	h := &hub{
		cfg:       cfg,
		res:       cfg.Resilience.withDefaults(),
		idle:      cfg.idleTimeout(),
		plan:      cfg.Faults,
		input:     input,
		src:       source.Wrap(source.NewTrusted(input), cfg.SourceFaults),
		shards:    shards,
		start:     time.Now(),
		expect:    cfg.N - len(faulty) + len(rejoining),
		faulty:    faulty,
		rejoining: rejoining,
		peers:     make(map[sim.PeerID]*hubPeer, cfg.N),
		met:       met,
		stop:      make(chan struct{}),
		allDone:   make(chan struct{}),
	}
	if cfg.Mirrors.Enabled() {
		h.mirror = source.NewMirrored(input, cfg.Mirrors, cfg.N, h.src)
	}
	for i := 0; i < cfg.N; i++ {
		if id := sim.PeerID(i); !absent[id] {
			h.peers[id] = &hubPeer{id: id, link: link{met: met, peer: i}}
		}
	}
	// Kill and flap schedules are armed up front; both sever the current
	// connection, but only kills refuse the reconnect that follows.
	for p, d := range cfg.KillAfter {
		hp := h.peers[p]
		h.timers = append(h.timers, time.AfterFunc(d, func() {
			hp.sever(true)
			h.met.mark(int(hp.id), "crash", "")
		}))
	}
	if h.plan != nil {
		for p, times := range h.plan.Flaps {
			hp := h.peers[p]
			if hp == nil {
				continue
			}
			for _, at := range times {
				h.timers = append(h.timers, time.AfterFunc(at, func() {
					if hp.sever(false) != nil {
						dbg("flap: severed peer %d", hp.id)
						h.met.mark(int(hp.id), "flap", "")
					}
				}))
			}
		}
	}
	h.wg.Add(1 + len(h.shards))
	for _, s := range h.shards {
		go h.acceptLoop(s, s.ln)
	}
	// Bounce timers arm only after the accept loops own their listeners:
	// an early bounce must race the running loop, not hub construction.
	// With the loops running, later and bounceShard may already be adding
	// timers of their own, so the list is extended under h.mu as they do.
	h.mu.Lock()
	for _, b := range cfg.ShardBounces {
		s := h.shards[b.Shard]
		down := b.Down
		h.timers = append(h.timers, time.AfterFunc(b.After, func() {
			h.bounceShard(s, down)
		}))
	}
	h.mu.Unlock()
	go h.tickLoop()
	return h, nil
}

// sever closes hp's connection, if any, and returns it; kill also refuses
// every reconnect from now on.
func (hp *hubPeer) sever(kill bool) *frameConn {
	hp.mu.Lock()
	hp.killed = hp.killed || kill
	conn := hp.conn
	hp.conn = nil
	hp.mu.Unlock()
	if conn != nil {
		conn.Close()
		conn.poke()
	}
	return conn
}

// shardFor maps a peer to its shard: the same arithmetic clients use to
// pick which address to dial.
func (h *hub) shardFor(id sim.PeerID) *hubShard {
	return h.shards[int(id)%len(h.shards)]
}

// addrFor is the listen address peer id must dial.
func (h *hub) addrFor(id sim.PeerID) string { return h.shardFor(id).addr }

func (h *hub) acceptLoop(s *hubShard, ln net.Listener) {
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

// rejectConn permanently refuses a connection (unknown, absent, or killed
// peer): the REJECT frame tells the client to stop redialing.
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
	if hp.killed {
		hp.mu.Unlock()
		h.rejectConn(conn)
		return
	}
	if resume {
		// Resume handshake: realign both stream positions for the rejoined
		// incarnation (stream.resumeBody). RESUME is owed first, so it
		// reaches the client before ROOT or any replay.
		body := hp.resumeBody()
		conn.owe(kResume, 0, rawPayload(body))
		dbg("peer %d resume: %x", hp.id, body)
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
	dbg("peer %d connected (reconnect=%v resume=%v)", hp.id, old != nil, resume)
	if resume {
		h.met.mark(int(hp.id), "rejoin", "")
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
			dbg("peer %d link down: %v", hp.id, err)
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
			dbg("peer %d query %dB (fallback %v)", hp.id, len(payload), kind == kQuerySrc)
			if kind == kQuery && h.mirror != nil {
				h.answerMirrorQuery(hp, conn, payload, now)
			} else {
				h.answerQuery(hp, conn, payload, now)
			}
		case kDone:
			dbg("peer %d done", hp.id)
			h.markDone(hp, payload)
		}
	}
}

// route relays a MSG (payload: uvarint dest, wire bytes) or a BCAST
// (payload: uvarint k, wire bytes; the recipients are the first k peers in
// id order, the sender skipped) as one MSG per recipient, its number
// rewritten to the sender. Each recipient is charged into the sender's M,
// present or not; each present one's reliable stream gets a MSG, all of
// them holding one copy of the body — payload is the connection's read
// buffer. A BCAST naming no recipient, or more than there are, is refused
// uncharged.
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
	chunks := max((len(body)*8+h.cfg.MsgBits-1)/h.cfg.MsgBits, 1)
	src.mu.Lock()
	src.msgsSent += int(k) * chunks
	src.msgBits += int(k) * len(body) * 8
	src.mu.Unlock()
	h.met.msgRouted(int(src.id), int(k)*chunks, int(k)*len(body)*8)

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
	s := h.shardFor(hp.id)
	n, err := w.write(conn, h.idle)
	s.enqueued.Add(int64(n))
	switch {
	case err != nil:
		s.writeErrs.Add(1)
		h.met.shardEventN(s.idx, "write_err", 1)
		return false
	case n > 0:
		s.written.Add(int64(n))
		s.flushes.Add(1)
		h.met.shardEventN(s.idx, "written", n)
		h.met.shardBatch(n)
	}
	return true
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
			s := h.shardFor(hp.id)
			s.enqueued.Add(int64(n))
			s.dropped.Add(int64(n))
			h.met.shardEventN(s.idx, "conn_down", n)
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

// fate puts an attempt of f toward hp to the fault plan (hp.mu held): it
// reports whether the attempt goes out now, and schedules its delayed and
// duplicate copies. Decisions are keyed by (link, seq, attempt), so the
// schedule replays yet a lossy link still delivers eventually.
func (h *hub) fate(hp *hubPeer, f outFrame, attempt int) bool {
	if h.plan == nil {
		return true
	}
	// A MSG's number is its sender; the rest come from the source.
	kind, seq, p, from := f.kind, f.seq, f.p, srcID
	if kind == kMsg {
		from = sim.PeerID(p.num)
	}
	elapsed := time.Since(h.start)
	if h.plan.dropFrame(from, hp.id, seq, attempt, elapsed) {
		hp.planDropped++
		h.met.planDrop(int(hp.id))
		dbg("plan: drop %s %d→%d seq=%d attempt=%d", kindName(kind), from, hp.id, seq, attempt)
		return false
	}
	delay := h.plan.delayFor(from, hp.id, seq, attempt) + h.plan.stallRemaining(hp.id, elapsed)
	// A held-back copy goes to hp's connection of the moment, if any.
	later := func(d time.Duration) {
		h.after(d, func() {
			hp.mu.Lock()
			if hp.conn != nil {
				hp.conn.owe(kind, seq, p)
			}
			hp.mu.Unlock()
		})
	}
	if h.plan.dupFrame(from, hp.id, seq, attempt) {
		hp.planDuped++
		h.met.planDupe(int(hp.id))
		later(h.plan.dupDelayFor(from, hp.id, seq, attempt))
	}
	if delay > 0 {
		later(delay)
		return false
	}
	return true
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
		h.met.sourceFailure(int(hp.id), kind.String())
		dbg("source: refusing peer %d query: %v", hp.id, err)
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
	if !already {
		h.met.mark(int(hp.id), "terminate", "")
	}
	if already || (h.faulty[hp.id] && !h.rejoining[hp.id]) {
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

// timeoutError snapshots the unterminated honest peers for the run's
// deadline report.
func (h *hub) timeoutError(after time.Duration) *TimeoutError {
	e := &TimeoutError{After: after}
	for i := 0; i < h.cfg.N; i++ {
		id := sim.PeerID(i)
		if h.faulty[id] && !h.rejoining[id] {
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
	h.mu.Unlock()
	close(h.stop)
	for _, t := range timers {
		t.Stop()
	}
	for _, s := range h.shards {
		s.closeListener()
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
// message counts, fault-plan and dedup counters, and what each peer output.
func (h *hub) result(per []sim.PeerStats) *sim.Result {
	res := &sim.Result{PerPeer: per}
	for _, s := range h.shards {
		res.ShardRestarts += int(s.restarts.Load())
	}
	for i := range per {
		id := sim.PeerID(i)
		ps := &per[i]
		ps.ID, ps.Honest, ps.Crashed = id, !h.faulty[id], h.faulty[id]
		if hp := h.peers[id]; hp != nil {
			hp.mu.Lock()
			ps.MsgsSent = hp.msgsSent
			ps.MsgBitsSent = hp.msgBits
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
