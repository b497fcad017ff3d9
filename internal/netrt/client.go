package netrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/bitarray"
	"repro/internal/checkpoint"
	"repro/internal/merkle"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/wire"
)

// runClient drives a peer's protocol instance, reconnecting through
// connection loss until the protocol terminates and its DONE frame is
// acknowledged. fate is the peer's fault, nil for an honest peer. A peer
// whose fate crashes it (CrashAfter ≥ 0) may go through two incarnations:
// the first crashes itself at its action count and persists a durable
// checkpoint; after the downtime a fresh instance loads the checkpoint
// into the peer's query plane, rejoins via the resume handshake, and runs
// to completion serving its warm bits locally. The plane q and the stats
// st outlive the incarnations, and q settles into st when the last one ends;
// newPeer builds each incarnation's protocol instance (or, for a
// Byzantine peer, its behavior); ev is the run's event stream, start the
// run's clock, and stop closes when the hub stops.
func runClient(cfg *Config, id sim.PeerID, fate *sim.Fate, newPeer func(sim.PeerID) sim.Peer, addr string,
	q *qplane.Plane, st *sim.PeerStats, met *netMetrics, ev *events, start time.Time, stop <-chan struct{}) error {
	defer func() { q.Settle(time.Since(start).Seconds()) }()
	var churn *sim.Fate // the fate, if it crashes the peer
	if fate != nil && fate.CrashAfter >= 0 {
		churn = fate
	}
	var store *checkpoint.Store
	if churn != nil && cfg.CheckpointDir != "" {
		var err error
		if store, err = checkpoint.NewStore(cfg.CheckpointDir); err != nil {
			return fmt.Errorf("netrt: checkpoint store: %w", err)
		}
	}
	rejoined := false
	for {
		c := &client{
			cfg:     cfg,
			res:     cfg.Resilience.withDefaults(),
			idle:    cfg.idleTimeout(),
			id:      id,
			addr:    addr,
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(id)*0x9e3779b97f4a7c + 1)),
			nrng:    rand.New(rand.NewSource(cfg.Seed ^ (int64(id)*0x51af + 0xdead))),
			impl:    newPeer(id),
			start:   start,
			met:     met,
			ev:      ev,
			q:       q,
			stats:   st,
			mparams: merkle.Params{TotalBits: cfg.L, LeafBits: cfg.Mirrors.EffectiveLeafBits()},
			stop:    stop,
			link:    link{met: met, peer: int(id)},
			stopHK:  make(chan struct{}),
			rearm:   make(chan struct{}, 1),
		}
		crashed, err := c.run(churn, store, rejoined)
		if err != nil {
			return err
		}
		if !crashed {
			return nil
		}
		st.Crashed = true
		if churn.Downtime < 0 {
			return nil // never rejoins: a plain mid-run crash
		}
		select {
		case <-time.After(time.Duration(churn.Downtime * float64(time.Second))):
		case <-stop:
			return nil
		}
		rejoined = true
	}
}

// run runs one life of the peer: dial, Init, frame loop, and either a
// clean exit (terminated or rejected) or a self-inflicted churn crash,
// reported via crashed so runClient can schedule the rejoin.
func (c *client) run(churn *sim.Fate, store *checkpoint.Store, rejoined bool) (crashed bool, err error) {
	cfg, id := c.cfg, c.id
	if churn != nil && !rejoined {
		// Only the first incarnation crashes; the rejoined one runs the
		// honest protocol to completion.
		c.churn = churn
	}
	if rejoined {
		c.needResume = true
		var warm *bitarray.Tracker
		if store != nil {
			if ck, lerr := store.Load(int(id), cfg.N, cfg.T, cfg.L, cfg.Seed); lerr == nil && ck != nil {
				warm = ck.Tracker()
				if ck.RootKnown {
					c.root = ck.Root
					c.rootKnown = true
				}
				c.lastPhase = ck.Phase
				c.stats.CheckpointRestores++
			}
		}
		if warm == nil {
			// A torn, corrupt, mismatched or missing checkpoint rejoins
			// cold: never wrong bits.
			warm = bitarray.NewTracker(cfg.L)
		}
		c.q.Rejoin(warm)
	}
	if err := c.connect(true); err != nil {
		return false, err
	}
	// The timer's first pass is a period away; a deadline set before then
	// wakes it earlier (armAt).
	period := c.housekeepPeriod()
	c.hkAt = time.Now().Add(period)
	go c.housekeeping(period)
	// The plane outlives this incarnation: the handshake completes only
	// once the timer has stopped touching it.
	defer func() { c.stopHK <- struct{}{} }()
	if c.countAction() {
		if rejoined {
			c.ev.peer(sim.KindRejoin, id, "", 0)
		} else {
			c.ev.peer(sim.KindStart, id, "", 0)
		}
		c.impl.Init(c)
	}
	c.drainLocal()
	c.loop()
	c.mu.Lock()
	conn := c.conn
	connErr := c.connErr
	crashed = c.crashed
	c.stats.DupFramesDropped += c.dups
	// The writer's last pass sends what is still owed: after a churn
	// crash, all the peer sent before its crash point.
	c.closing = true
	c.mu.Unlock()
	if conn != nil {
		conn.poke()
	}
	c.writers.Wait()
	if conn != nil && connErr == nil {
		// Our DONE is acked, we were rejected, or we crashed. Half-close
		// and drain until the hub closes on our EOF, so that unread input
		// does not turn the close into a reset that loses the frames in
		// flight (after a crash, all the peer sent before its crash
		// point). A silent hub is waited on for the idle window at most.
		if tc, ok := conn.nc.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_ = conn.nc.SetReadDeadline(time.Now().Add(c.idle))
		_, _ = io.Copy(io.Discard, conn.nc)
	}
	if conn != nil {
		conn.Close()
	}
	if crashed {
		// Persist the durable checkpoint before going down: everything the
		// dead incarnation verified from the source survives the crash.
		if store != nil && churn.Downtime >= 0 {
			cs := &checkpoint.State{Peer: int(id), N: cfg.N, T: cfg.T, L: cfg.L,
				Seed: cfg.Seed, Phase: c.lastPhase}
			if c.rootKnown {
				cs.RootKnown = true
				cs.Root = c.root
			}
			cs.FromTracker(c.q.Persist())
			if store.Save(cs) == nil {
				c.mu.Lock()
				c.stats.CheckpointSaves++
				c.mu.Unlock()
			}
		}
		return true, nil
	}
	return false, connErr
}

type client struct {
	cfg  *Config
	res  Resilience
	idle time.Duration
	id   sim.PeerID
	addr string
	rng  *rand.Rand // protocol randomness (sim.Context.Rand)
	nrng *rand.Rand // network randomness (backoff jitter), kept separate
	impl sim.Peer
	// start is when the run started: the clock of Now and of the query
	// plane, shared by both incarnations of a churn peer.
	start time.Time
	// met is the run's shared metrics bundle and ev its event stream;
	// each is nil when disabled.
	met *netMetrics
	ev  *events

	stop <-chan struct{} // the hub's: nothing of the client waits past it

	mu sync.Mutex
	// link is the peer's end of its reliable link: the client→hub stream
	// (MSG, BCAST, QUERY, QUERYSRC, DONE), replayed at every install and
	// resent when long unacked, and the dedup of the hub→client one (MSG,
	// QREPLY, QPROOF, QERR). Its dups join stats when the incarnation ends.
	link
	// writers counts running writers; closing makes a pass the last.
	writers sync.WaitGroup
	closing bool
	// q is the peer's query plane (package qplane): it charges Q, serves
	// a rejoined peer's warm bits, and rules on every retry, park and
	// probe. stats is the peer's accounting. Both outlive the incarnation.
	// Guarded by mu — the read loop and the housekeeping timer both drive
	// the plane — except q.Learn, which touches only the persisted tracker and
	// runs, like the Begin that reads it, on the loop goroutine alone.
	q     *qplane.Plane
	stats *sim.PeerStats
	// queries holds the calls the plane issued that await a reply, oldest
	// first; wakeAt is when the plane's one pending breaker wake is due
	// (zero: none). hkAt is when the housekeeping timer is armed to fire.
	queries  []*pendingQuery
	wakeAt   time.Time
	hkAt     time.Time
	lastPing time.Time
	// Mirror-tier state (Config.Mirrors): the authoritative commitment
	// from the hub's ROOT frame and the tree shape for verification.
	mparams   merkle.Params
	root      [merkle.HashBytes]byte
	rootKnown bool

	// Churn state. churn is non-nil only in an incarnation that still owes
	// its crash. actions ticks the des-runtime action clock (init, sends,
	// queries, deliveries); crashed latches once it exceeds
	// churn.CrashAfter. needResume makes the next successful dial request
	// the resume handshake. pendingLocal queues fully-warm query replies
	// for delivery between frames, so the protocol is never re-entered
	// from inside Query.
	churn        *sim.Fate
	needResume   bool
	actions      int
	crashed      bool
	lastPhase    string
	pendingLocal []sim.QueryReply

	terminated bool
	rejected   bool
	connErr    error
	output     *bitarray.Array

	// stopHK stops the housekeeping timer: a send returns once it stopped.
	// rearm (one slot) wakes it to re-arm for a deadline earlier than hkAt.
	stopHK chan struct{}
	rearm  chan struct{}

	// enc is where Send and Broadcast encode a message, and Query a query
	// header, before copying it out at its exact size. Like the protocol
	// that calls them, they run on the loop goroutine alone.
	enc []byte
}

// countAction ticks the churn action clock; false means the crash point
// was just passed or already hit: the caller must drop the action (as on
// des, where a sim.Fate's exceeding action is lost).
// After the crash the frame loop exits and run closes the connection.
func (c *client) countAction() bool {
	if c.churn == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false
	}
	c.actions++
	if c.actions > c.churn.CrashAfter {
		c.crashed = true
		c.ev.peer(sim.KindCrash, c.id, "", 0)
		return false
	}
	return true
}

// drainLocal delivers queued fully-warm query replies. It runs on the
// loop goroutine between frames (and right after Init), so the sim.Peer
// sequential contract holds; replies queued by a handler it invokes are
// picked up by the same drain.
func (c *client) drainLocal() {
	for {
		c.mu.Lock()
		if len(c.pendingLocal) == 0 || c.terminated {
			c.pendingLocal = nil
			c.mu.Unlock()
			return
		}
		qr := c.pendingLocal[0]
		c.pendingLocal = c.pendingLocal[1:]
		c.mu.Unlock()
		if !c.countAction() {
			return
		}
		c.deliver(qr)
	}
}

// deliver hands the protocol a query reply once the plane has learnt it.
func (c *client) deliver(qr sim.QueryReply) {
	c.q.Learn(qr)
	c.ev.peer(sim.KindQReply, c.id, "", len(qr.Indices))
	c.impl.OnQueryReply(qr)
}

var _ sim.Context = (*client)(nil)

// clock is t on the query plane's clock: seconds since the run started.
func (c *client) clock(t time.Time) float64 { return t.Sub(c.start).Seconds() }

// at is the wall time of plane time s.
func (c *client) at(s float64) time.Time { return c.start.Add(time.Duration(s * float64(time.Second))) }

// connect dials the hub with capped exponential backoff, installs the
// connection and starts its writer, whose first pass replays every unacked
// frame (the hub dedups overlap). It gives up once the hub has stopped.
func (c *client) connect(initial bool) error {
	for a := 0; a < c.res.ReconnectAttempts; a++ {
		if a > 0 {
			d := backoffDelay(c.nrng, a-1, c.res.ReconnectBase, reconnectMax)
			c.met.backoffObserve(d)
			select {
			case <-time.After(d):
			case <-c.stop:
				return errHubGone
			}
		}
		nc, err := dial(c.addr, 0)
		if err != nil {
			c.mu.Lock()
			term := c.terminated
			c.mu.Unlock()
			if term && !initial {
				return errHubGone
			}
			continue
		}
		// One reader for the connection's whole life: frames that arrive
		// in the same segment as RESUME are in its buffer for loop.
		conn := newFrameConn(nc, c.idle)
		c.mu.Lock()
		needResume := c.needResume
		c.mu.Unlock()
		hello := binary.AppendUvarint(nil, uint64(c.id))
		if needResume {
			hello = append(hello, 1) // flag byte: resume request
		}
		c.met.frame(sideClient, dirTx, kHello, len(hello))
		if err := writeHandshake(conn, kHello, rawPayload(hello)); err != nil {
			conn.Close()
			continue
		}
		if needResume {
			if err := c.awaitResume(conn); err != nil {
				conn.Close()
				continue
			}
		}
		c.mu.Lock()
		old := c.install(conn)
		if !initial {
			c.stats.Reconnects++
			c.ev.peer(sim.KindReconnect, c.id, "", 0)
		}
		c.writers.Add(1)
		c.mu.Unlock()
		if old != nil {
			old.Close()
			old.poke()
		}
		go func() {
			defer c.writers.Done()
			var w wbuf
			conn.writeLoop(c.stop, func() bool { return c.pass(conn, &w) })
		}()
		conn.poke()
		return nil
	}
	return fmt.Errorf("netrt: reconnect budget exhausted (%d attempts)", c.res.ReconnectAttempts)
}

// pass writes what conn owes in one write: its ACKs and pings, then the
// outbox frames due (unacked for 4·RTO when housekeeping asks). False ends
// the writer: conn replaced, the last pass (closing), or a failed write.
func (c *client) pass(conn *frameConn, w *wbuf) bool {
	c.mu.Lock()
	now := time.Now()
	var mine bool
	w.frames, mine = c.take(conn, w.frames[:0], now, now.Add(-4*c.res.RTO))
	last := c.closing
	c.mu.Unlock()
	if !mine {
		return false
	}
	for _, f := range w.frames {
		c.met.frame(sideClient, dirTx, f.kind, f.p.len())
	}
	_, err := w.write(conn, c.idle)
	return err == nil && !last
}

// awaitResume reads frames on a fresh resume connection until the hub's
// RESUME verdict arrives, then aligns both stream positions to it
// (stream.resume): the hub's outbox base covers replies as well as MSGs.
// Everything before the verdict is discarded: the hub retransmits every
// unacked frame against the aligned streams.
func (c *client) awaitResume(conn *frameConn) error {
	for {
		kind, _, payload, err := conn.readFrame()
		if err != nil {
			return err
		}
		c.met.frame(sideClient, dirRx, kind, len(payload))
		switch kind {
		case kResume:
			c.mu.Lock()
			err := c.resume(payload)
			c.needResume = err != nil
			c.mu.Unlock()
			return err
		case kReject:
			c.mu.Lock()
			c.rejected = true
			c.mu.Unlock()
			return nil
		default:
			// Pre-resume frame: discard (see kResume's contract).
		}
	}
}

// loop reads frames and dispatches handlers until the protocol has
// terminated with its DONE frame acked (or the hub rejects us). Protocol
// handlers run on this single goroutine, preserving the sim.Peer
// sequential contract.
func (c *client) loop() {
	for {
		c.mu.Lock()
		conn := c.conn
		finished := c.rejected || c.crashed || (c.terminated && c.out.empty())
		c.mu.Unlock()
		if finished {
			return
		}
		kind, seq, payload, err := conn.readFrame()
		if err != nil {
			c.mu.Lock()
			finished := c.rejected || c.crashed || (c.terminated && c.out.empty())
			c.mu.Unlock()
			if finished {
				return
			}
			if cerr := c.connect(false); cerr != nil {
				c.mu.Lock()
				if !c.terminated && !c.rejected && !errors.Is(cerr, errHubGone) {
					c.connErr = cerr
				}
				c.mu.Unlock()
				return
			}
			continue
		}
		c.met.frame(sideClient, dirRx, kind, len(payload))
		c.handleFrame(kind, seq, payload)
		c.drainLocal()
	}
}

func (c *client) handleFrame(kind byte, seq uint64, payload []byte) {
	switch kind {
	case kPing:
		// Heartbeat: reading it already refreshed the deadline.
	case kReject:
		c.mu.Lock()
		c.rejected = true
		c.mu.Unlock()
	case kAck:
		if v, n := binary.Uvarint(payload); n > 0 {
			c.mu.Lock()
			c.acked(v)
			c.mu.Unlock()
		}
	case kMsg:
		if fresh, term := c.admitFrame(seq); !fresh || term {
			return
		}
		// A body that does not decode was admitted and acked all the
		// same: drop it like line noise, but count it.
		from64, n := binary.Uvarint(payload)
		if n <= 0 {
			c.met.malformedDropped(int(c.id))
			return
		}
		m, err := wire.Unmarshal(payload[n:], c.cfg.L)
		if err != nil {
			c.met.malformedDropped(int(c.id))
			return
		}
		if !c.countAction() {
			return
		}
		if c.ev.reads(sim.KindDeliver) {
			c.ev.msg(sim.KindDeliver, c.id, sim.PeerID(from64), m, sim.MsgType(m), m.SizeBits())
		}
		c.impl.OnMessage(sim.PeerID(from64), m)
	case kRoot:
		if len(payload) != merkle.HashBytes {
			return
		}
		c.mu.Lock()
		copy(c.root[:], payload)
		c.rootKnown = true
		c.mu.Unlock()
	case kQReply, kQProof, kQErr:
		if fresh, _ := c.admitFrame(seq); !fresh {
			return
		}
		// A reply echoes its query's header: the call is matched by it.
		tag, count, hdrLen, _, _, ok := scanQuery(payload, c.cfg.L)
		if !ok {
			return
		}
		hdr, rest := payload[:hdrLen], payload[hdrLen:]
		key := qkeyOfHeader(tag, hdr)
		switch kind {
		case kQProof:
			c.handleProofReply(key, hdr, rest)
		case kQErr:
			if len(rest) > 0 {
				c.refused(key, hdr, source.Kind(rest[0]))
			}
		default:
			n64, n := binary.Uvarint(rest)
			if n <= 0 || n64 > uint64(len(rest[n:])) {
				return
			}
			bits, err := bitarray.FromBytes(rest[n : n+int(n64)])
			if err != nil || bits.Len() != count {
				return // one bit per index, or it is line noise
			}
			c.complete(key, hdr, bits, false)
		}
	}
}

// admitFrame admits a numbered frame of the hub's stream (link.admit); term
// reports whether the protocol has already terminated.
func (c *client) admitFrame(seq uint64) (fresh, term bool) {
	c.mu.Lock()
	fresh, term = c.admit(seq), c.terminated
	c.mu.Unlock()
	return fresh, term
}

// push appends a frame to the reliable stream (link.send, mu held). A
// terminated or crashed incarnation sends nothing more.
func (c *client) push(kind byte, p framePayload) {
	if !c.crashed && !c.terminated {
		c.send(kind, p)
	}
}

// ID implements sim.Context.
func (c *client) ID() sim.PeerID { return c.id }

// N implements sim.Context.
func (c *client) N() int { return c.cfg.N }

// T implements sim.Context.
func (c *client) T() int { return c.cfg.T }

// L implements sim.Context.
func (c *client) L() int { return c.cfg.L }

// MsgBits implements sim.Context.
func (c *client) MsgBits() int { return c.cfg.MsgBits }

// Send implements sim.Context: one action tick and one MSG frame.
func (c *client) Send(to sim.PeerID, m sim.Message) {
	if to < 0 || int(to) >= c.cfg.N || to == c.id || !c.countAction() {
		return
	}
	c.enc = marshalAppend(c.enc[:0], m)
	body := bytes.Clone(c.enc)
	c.mu.Lock()
	if !c.crashed && !c.terminated {
		c.sent(m, to, 1)
		c.send(kMsg, numPayload(uint64(to), body))
	}
	c.mu.Unlock()
}

// sent charges m to its k recipients from to on, in id order and the
// peer itself skipped, into M — ⌈SizeBits/b⌉ messages each, as des
// charges a send — and emits their send events (mu held).
func (c *client) sent(m sim.Message, to sim.PeerID, k int) {
	size := m.SizeBits()
	chunks := max(1, (size+c.cfg.MsgBits-1)/c.cfg.MsgBits)
	c.stats.MsgsSent += k * chunks
	c.stats.MsgBitsSent += k * size
	if !c.ev.reads(sim.KindSend) {
		return
	}
	typ := sim.MsgType(m)
	for ; k > 0; to++ {
		if to != c.id {
			c.ev.msg(sim.KindSend, c.id, to, m, typ, size)
			k--
		}
	}
}

// marshalAppend is wire.MarshalAppend for messages a protocol emitted: one
// the codec does not know is a bug in the build, not an input condition.
func marshalAppend(dst []byte, m sim.Message) []byte {
	out, err := wire.MarshalAppend(dst, m)
	if err != nil {
		panic(fmt.Sprintf("netrt: unencodable message %T: %v", m, err))
	}
	return out
}

// Broadcast implements sim.Context: Send to every other peer in id order,
// on the wire one BCAST frame — uvarint k, then the message encoded once —
// that the hub relays to the first k other peers. Each recipient costs one
// action tick, as a Send does, so a churn peer whose crash point falls
// inside the broadcast reaches exactly the peers a Send loop would have.
func (c *client) Broadcast(m sim.Message) {
	k := 0
	for k < c.cfg.N-1 && c.countAction() {
		k++
	}
	if k == 0 {
		return
	}
	c.enc = marshalAppend(binary.AppendUvarint(c.enc[:0], uint64(k)), m)
	body := bytes.Clone(c.enc)
	c.mu.Lock()
	// Unlike push, this sends when a tick crashed the peer too: the
	// recipients counted before the crash are owed the message.
	if !c.terminated {
		c.sent(m, 0, k)
		c.send(kBcast, rawPayload(body))
	}
	c.mu.Unlock()
}

// Output implements sim.Context.
func (c *client) Output(out *bitarray.Array) {
	c.mu.Lock()
	term := c.terminated
	c.mu.Unlock()
	if !term {
		c.output = out.Clone()
	}
}

// Terminate implements sim.Context. The DONE frame rides the reliable
// stream: the loop keeps running (and reconnecting if needed) until the
// hub's cumulative ack covers it, so termination survives chaos.
func (c *client) Terminate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.terminated || c.crashed {
		return
	}
	var raw []byte
	if c.output != nil {
		raw = c.output.Bytes()
	}
	c.push(kDone, numPayload(uint64(len(raw)), raw))
	c.terminated = true
	c.ev.peer(sim.KindTerminate, c.id, "", 0)
}

// MarkPhase implements sim.Context: the phase is what a churn peer's
// checkpoint records, and a "phase" event.
func (c *client) MarkPhase(name string) {
	c.mu.Lock()
	c.lastPhase = name
	c.mu.Unlock()
	c.ev.emit(sim.KindPhase, sim.ObservedEvent{Peer: c.id, Other: -1, Name: name})
}

// Rand implements sim.Context.
func (c *client) Rand() *rand.Rand { return c.rng }

// Now implements sim.Context.
func (c *client) Now() float64 { return c.clock(time.Now()) }

// backoffDelay returns the capped exponential delay before redial
// `attempt` (0-based), jittered to ±50% so flapped peers do not redial in
// lockstep.
func backoffDelay(rng *rand.Rand, attempt int, base, max time.Duration) time.Duration {
	d := base << uint(min(attempt, 20))
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}
