// Package netrt runs Download protocols over real TCP sockets: every peer
// is a client holding one connection to a hub, which routes peer-to-peer
// frames and serves source queries. Messages travel as actual bytes
// (package wire), so this runtime exercises the full stack — protocol
// logic, codec, framing, concurrency — under genuine network I/O, which
// neither simulation runtime does.
//
// The hub plays the network and the trusted source of the DR model:
//
//	peer ──TCP──▶ hub ──TCP──▶ peer      (MSG frames, wire-encoded)
//	peer ──TCP──▶ hub (source) ──▶ peer  (QUERY/QREPLY frames)
//
// Fault injection goes well beyond crash-from-start (Absent) and mid-run
// kills (KillAfter): a seeded FaultPlan lets the hub drop, duplicate,
// delay, reorder and stall deliveries, sever connections that may
// reconnect, and impose timed partitions that later heal. A resilience
// layer keeps honest peers live through all of it — unacked frames are
// retransmitted until cumulatively acked (fair loss → reliable link),
// receivers dedup by per-sender sequence number, clients redial with
// capped exponential backoff, unanswered source queries are re-issued,
// and idle connections are detected by heartbeat-refreshed read
// deadlines. Timing is wall-clock, but the fault schedule itself is a
// pure function of the plan's seed, so a chaotic run's faults replay
// exactly. See docs/RUNTIMES.md for the full matrix and frame format
// (framing lives in frame.go; the plan in faultplan.go; resilience
// primitives in reconnect.go).
package netrt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bitarray"
	"repro/internal/checkpoint"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/wire"
)

var debugNetrt = os.Getenv("DEBUG_NETRT") != ""

func dbg(format string, args ...any) {
	if debugNetrt {
		fmt.Fprintf(os.Stderr, "netrt: "+format+"\n", args...)
	}
}

// defaultIdleTimeout is the dead-link detection window: a connection with
// no inbound traffic for this long is closed and treated as crashed.
// Heartbeats flow every third of the window, so live-but-quiet links
// never trip it.
const defaultIdleTimeout = 5 * time.Second

// Config describes one networked execution.
type Config struct {
	// N, T, L, MsgBits are the DR-model parameters.
	N, T, L, MsgBits int
	// Seed drives the input array and peer randomness.
	Seed int64
	// NewPeer constructs the protocol instance per peer.
	NewPeer func(sim.PeerID) sim.Peer
	// Absent lists peers that crash before starting (never connect);
	// must satisfy len(Absent) ≤ T.
	Absent []sim.PeerID
	// KillAfter crashes peers mid-run: the hub severs each listed
	// peer's connection after the given wall duration from run start and
	// refuses its reconnects. Killed peers count toward T together with
	// Absent ones.
	KillAfter map[sim.PeerID]time.Duration
	// Churn lists peers that crash themselves mid-run after CrashAfter
	// protocol actions (sends, queries, deliveries — the same action
	// clock as the des runtime) and, when Downtime ≥ 0, restart after
	// roughly Downtime seconds, rejoining warm from their on-disk
	// checkpoint via the resume handshake. Churn peers count toward T
	// together with Absent and KillAfter, but rejoining ones are still
	// expected to terminate: the run waits for their DONE.
	Churn []sim.ChurnPeer
	// CheckpointDir is where churn peers persist durable checkpoints
	// (internal/checkpoint); required when any churn peer rejoins
	// (Downtime ≥ 0). A missing or corrupt checkpoint at rejoin is a cold
	// start, never wrong bits.
	CheckpointDir string
	// ShardBounces kills hub listener shards mid-run and restarts them
	// after a downtime window. Clients homed on a bounced shard are
	// severed and redial with backoff until the listener returns: a
	// bounce degrades latency, never correctness, and (like Faults) never
	// counts toward T.
	ShardBounces []ShardBounce
	// Faults optionally injects a seeded network fault schedule at the
	// hub (drops, duplicates, delays, stalls, flaps, healed partitions).
	// Unlike Absent/KillAfter, a FaultPlan never counts toward T: honest
	// peers are expected to survive it via the resilience layer.
	Faults *FaultPlan
	// SourceFaults optionally makes the hub's source tier misbehave:
	// queries crossing it suffer the plan's outage windows, rate limit,
	// transient failures, and reply latency (source.FaultPlan units are
	// seconds here). Active refusals come back as QERR frames, which feed
	// the retry/backoff/breaker lifecycle of each client's query plane
	// (package qplane). Like Faults, a source plan never counts toward T.
	SourceFaults *source.FaultPlan
	// SourcePolicy tunes the clients' source resilience layer (times in
	// seconds); zero fields default per source.Policy, and a zero Seed
	// derives from Seed so backoff jitter is reproducible.
	SourcePolicy source.Policy
	// Mirrors, when non-nil and enabled, fronts the source with an
	// untrusted mirror fleet: QUERY frames draw proof-carrying QPROOF
	// replies that the client verifies against the hub-published ROOT
	// commitment, falling back to QUERYSRC (the authoritative tier,
	// itself subject to SourceFaults) when a proof fails. Q is charged at
	// the client's Query either way. Like Faults, mirrors never count
	// toward T.
	Mirrors *source.MirrorPlan
	// IdleTimeout overrides the dead-link detection window (default 5s).
	IdleTimeout time.Duration
	// Shards sets the number of hub listener shards. Peer id i dials the
	// shard i % Shards, and each shard owns a listener and its accept
	// loop. 0 or 1 keeps a single shard.
	Shards int
	// ShardQueue is unused: a connection's one queue is its peer's outbox.
	//
	// Deprecated: ignored.
	ShardQueue int
	// Resilience tunes retry/reconnect behavior; zero fields default.
	Resilience Resilience
	// Timeout bounds the whole run (default 30s). When it fires, Run
	// returns a *TimeoutError naming the unterminated peers.
	Timeout time.Duration
	// Input optionally fixes the source array.
	Input *bitarray.Array
	// Metrics, when non-nil, receives runtime counters: frames and bytes
	// by kind and direction, per-peer query bits, reconnects, query
	// retries, dedup and fault-plan counters. Nil disables collection at
	// zero cost.
	Metrics *obs.Registry
	// Timeline, when non-nil, receives wall-clock span marks (phases,
	// reconnects, query retries, kills, terminations).
	Timeline *obs.Timeline
	// Label is the "protocol" label value on metric series.
	Label string
}

// idleTimeout is IdleTimeout with its default applied.
func (c *Config) idleTimeout() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	return defaultIdleTimeout
}

func (c *Config) validate() error {
	sc := sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: c.MsgBits, Seed: c.Seed, Input: c.Input}
	if err := sc.Validate(); err != nil {
		return err
	}
	if c.NewPeer == nil {
		return errors.New("netrt: missing NewPeer")
	}
	faulty := len(c.Absent) + len(c.KillAfter) + len(c.Churn)
	for _, p := range c.Absent {
		if _, both := c.KillAfter[p]; both {
			return fmt.Errorf("netrt: peer %d both absent and killed", p)
		}
	}
	seen := make(map[sim.PeerID]bool, len(c.Churn))
	needCkpt := false
	for _, cp := range c.Churn {
		if cp.Peer < 0 || int(cp.Peer) >= c.N {
			return fmt.Errorf("netrt: churn peer %d out of range", cp.Peer)
		}
		if seen[cp.Peer] {
			return fmt.Errorf("netrt: duplicate churn peer %d", cp.Peer)
		}
		seen[cp.Peer] = true
		if cp.CrashAfter < 0 {
			return fmt.Errorf("netrt: churn peer %d has negative crash point", cp.Peer)
		}
		for _, a := range c.Absent {
			if a == cp.Peer {
				return fmt.Errorf("netrt: peer %d both absent and churning", cp.Peer)
			}
		}
		if _, both := c.KillAfter[cp.Peer]; both {
			return fmt.Errorf("netrt: peer %d both killed and churning", cp.Peer)
		}
		if cp.Downtime >= 0 {
			needCkpt = true
		}
	}
	if needCkpt && c.CheckpointDir == "" {
		return errors.New("netrt: churn rejoin requires CheckpointDir for durable checkpoints")
	}
	if faulty > c.T {
		return fmt.Errorf("netrt: %d faulty peers exceeds t=%d", faulty, c.T)
	}
	nShards := c.Shards
	if nShards < 1 {
		nShards = 1
	}
	for _, b := range c.ShardBounces {
		if b.Shard < 0 || b.Shard >= nShards {
			return fmt.Errorf("netrt: shard bounce targets shard %d of %d", b.Shard, nShards)
		}
		if b.After <= 0 || b.Down < 0 {
			return fmt.Errorf("netrt: shard bounce needs After > 0 and Down >= 0 (got %v/%v)", b.After, b.Down)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.validate(c.N); err != nil {
			return err
		}
	}
	if c.SourceFaults != nil {
		if err := c.SourceFaults.Validate(); err != nil {
			return fmt.Errorf("netrt: %w", err)
		}
	}
	if c.Mirrors != nil {
		if err := c.Mirrors.Validate(); err != nil {
			return fmt.Errorf("netrt: %w", err)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("netrt: negative Shards (%d)", c.Shards)
	}
	return nil
}

// PendingPeer describes one honest peer that had not terminated when the
// run's deadline fired.
type PendingPeer struct {
	ID sim.PeerID
	// Connected reports whether the peer held a live connection.
	Connected bool
	// LastFrame is the kind of the last protocol frame (MSG/QUERY/DONE)
	// the hub saw from the peer, "" if none arrived.
	LastFrame string
	// LastFrameAge is how long before the deadline that frame arrived.
	LastFrameAge time.Duration
	// Unacked is the depth of the hub's outbox toward the peer; AckBase
	// the position of that stream the peer is known to hold.
	Unacked int
	AckBase uint64
}

// TimeoutError reports which peers were still running when Config.Timeout
// elapsed, replacing the former silent non-termination result so a hung
// run names its suspects.
type TimeoutError struct {
	After   time.Duration
	Pending []PendingPeer
	// Stacks is the goroutine profile (debug=1) taken as the deadline
	// fired: a stalled run's wait cycle shows in it.
	Stacks []byte
}

func (e *TimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netrt: run timed out after %v; %d peer(s) unterminated:", e.After, len(e.Pending))
	for _, p := range e.Pending {
		switch {
		case !p.Connected && p.LastFrame == "":
			fmt.Fprintf(&b, " peer %d (never heard from)", p.ID)
		case p.LastFrame == "":
			fmt.Fprintf(&b, " peer %d (connected, no protocol frames)", p.ID)
		default:
			fmt.Fprintf(&b, " peer %d (last %s %.1fs ago)", p.ID, p.LastFrame, p.LastFrameAge.Seconds())
		}
	}
	return b.String()
}

// Run executes the configuration and reports the outcome in the same
// Result shape as the simulation runtimes. Absent peers are reported as
// crashed/faulty. A run whose honest peers outlast Timeout fails with a
// *TimeoutError.
func Run(cfg Config) (*sim.Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits,
		Seed: cfg.Seed, Input: cfg.Input}).ResolveInput()

	met := newNetMetrics(&cfg, time.Now())
	h, err := newHub(cfg, input, met)
	if err != nil {
		return nil, err
	}
	defer h.close()

	absent := make(map[sim.PeerID]bool, len(cfg.Absent))
	for _, p := range cfg.Absent {
		absent[p] = true
	}

	// Each client drives its peer's query plane, which charges Q at Query
	// and keeps the peer's accounting in stats across both incarnations
	// of a churn peer; the hub adds its half at the end.
	tier := qplane.NewRemoteTier(cfg.L, cfg.Seed, cfg.SourcePolicy)
	stats := make([]sim.PeerStats, cfg.N)
	var clients sync.WaitGroup
	errs := make(chan error, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := sim.PeerID(i)
		if absent[id] {
			continue
		}
		q := tier.NewPlane(i, &stats[i], churnFor(&cfg, id) != nil)
		clients.Add(1)
		go func() {
			defer clients.Done()
			if err := runClient(&cfg, id, h.addrFor(id), q, &stats[id], met, h.start, h.stop); err != nil {
				errs <- fmt.Errorf("peer %d: %w", id, err)
			}
		}()
	}

	select {
	case <-h.allDone:
	case <-time.After(timeout):
		terr := h.timeoutError(timeout)
		h.close()
		clients.Wait()
		return nil, terr
	case err := <-errs:
		h.close()
		clients.Wait()
		return nil, err
	}
	h.close()
	clients.Wait()

	res := h.result(stats)
	res.Finalize(input)
	return res, nil
}

// --- hub ---------------------------------------------------------------

// hubPeer is the hub's per-peer link state. It outlives any single
// connection: sequence numbers, the retransmit outbox, and dedup state
// persist across flaps and reconnects, which is what makes duplicated or
// replayed frames idempotent.
type hubPeer struct {
	id sim.PeerID

	mu   sync.Mutex
	conn *frameConn // nil while disconnected; only its writer writes it
	// killed marks a KillAfter casualty: reconnects are refused.
	killed bool
	// out is the reliable hub→peer stream: relayed MSGs and the source's
	// QREPLY, QPROOF and QERR frames, numbered together: the only queue
	// toward the peer. conn's writer sends each frame once pushed, and
	// again until the cumulative ack covers it — at the next retransmit
	// tick past the RTO, or on the third repeat of an ack (outbox.ack).
	out outbox
	// recv dedups the peer→hub reliable stream.
	recv dedupReliable

	msgsSent int
	msgBits  int
	// srcServes counts query arrivals from this peer; it is the Ordinal
	// fed to the source fault plan, so every retried serve rolls fresh
	// fault decisions (a failure rate < 1 answers eventually).
	srcServes uint64
	// Robustness counters: fault-plan events on deliveries toward this
	// peer, and duplicate inbound frames the hub discarded.
	planDropped, planDuped, dupsDeduped int

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
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
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
			h.peers[id] = &hubPeer{id: id}
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
	h.met.hubRx(kind, len(payload))
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
	old := hp.conn
	hp.conn = conn
	// In-flight frames on the previous connection may be lost: replay
	// everything unacked. The client's dedup absorbs any overlap.
	hp.out.markAllDue()
	if resume {
		// Resume handshake: realign both stream positions for the rejoined
		// incarnation. The peer's receive watermark fast-forwards over any
		// out-of-order admissions — the gaps below them belonged to the
		// dead incarnation and can never fill — and becomes the send base
		// its fresh outbox numbers above. The ack base is where the hub's
		// own reliable stream starts retransmitting from. RESUME is owed
		// first, so it reaches the client before ROOT or any replay.
		sendBase := hp.recv.fastForward()
		ackBase := hp.out.base()
		body := binary.AppendUvarint(nil, sendBase)
		body = binary.AppendUvarint(body, ackBase)
		conn.owe(kResume, 0, rawPayload(body))
		dbg("peer %d resume: sendBase=%d ackBase=%d", hp.id, sendBase, ackBase)
	}
	if h.mirror != nil {
		// The commitment precedes any reply on this connection, so the
		// client always verifies against a known root.
		root := h.mirror.Root()
		if f := (outFrame{kind: kRoot, p: rawPayload(root[:])}); h.fate(hp, f, 0) {
			conn.owe(kRoot, 0, rawPayload(root[:]))
		}
	}
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
		h.met.hubRx(kind, len(payload))
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
			fast := hp.out.ack(v)
			hp.mu.Unlock()
			if fast {
				dbg("peer %d: third repeat of ack %d, fast retransmit", hp.id, v)
				conn.poke()
			}
		}
	case kMsg, kBcast, kQuery, kQuerySrc, kDone:
		// One clock reading a frame: it stamps the frame's arrival and
		// the first send of whatever the hub answers it with.
		now := time.Now()
		hp.mu.Lock()
		fresh := hp.recv.admit(seq)
		if !fresh {
			hp.dupsDeduped++
			h.met.dupDropped(int(hp.id))
		} else {
			hp.lastKind, hp.lastFrame = kind, now
		}
		conn.owe(kAck, 0, numPayload(hp.recv.cumAck(), nil))
		hp.mu.Unlock()
		if !fresh {
			return
		}
		switch kind {
		case kMsg, kBcast:
			h.route(hp, kind, payload)
		case kQuery:
			dbg("peer %d query %dB", hp.id, len(payload))
			if h.mirror != nil {
				h.answerMirrorQuery(hp, conn, payload, now)
			} else {
				h.answerQuery(hp, conn, payload, now)
			}
		case kQuerySrc:
			dbg("peer %d fallback query %dB", hp.id, len(payload))
			h.answerQuery(hp, conn, payload, now)
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
	chunks := (len(body)*8 + h.cfg.MsgBits - 1) / h.cfg.MsgBits
	if chunks < 1 {
		chunks = 1
	}
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

// send appends a frame to hp's reliable stream and wakes its writer; toward
// a peer that is down it waits for the replay on reconnect.
func (h *hub) send(hp *hubPeer, kind byte, p framePayload) {
	hp.mu.Lock()
	hp.out.push(kind, p)
	if hp.conn != nil {
		hp.conn.poke()
	}
	hp.mu.Unlock()
}

// wbuf is a writer's scratch: one pass's frames, and their encoding.
type wbuf struct {
	frames []outFrame
	batch  frameBatch
}

// write sends w's frames in one write under the idle deadline, if any, and
// returns how many went out; a failed write closes conn.
func (w *wbuf) write(conn *frameConn, idle time.Duration) (int, error) {
	for _, f := range w.frames {
		_ = w.batch.add(f.kind, f.seq, f.p) // a frame over the limit is never sent
	}
	clear(w.frames) // release the bodies
	n := w.batch.frames
	if n == 0 {
		return 0, nil
	}
	if idle > 0 {
		conn.nc.SetWriteDeadline(time.Now().Add(idle))
	}
	err := conn.writeFrames(&w.batch)
	if err != nil {
		conn.Close()
	}
	return n, err
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
		h.met.hubTx(f.kind, f.p.len())
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
	if hp.conn != conn {
		if n := len(conn.owed); n > 0 {
			s := h.shardFor(hp.id)
			s.enqueued.Add(int64(n))
			s.dropped.Add(int64(n))
			h.met.shardEventN(s.idx, "conn_down", n)
		}
		return dst, false
	}
	now := time.Now()
	ctl := len(dst) + len(conn.owed)
	dst = conn.take(dst, &hp.out, now, now.Add(-h.res.RTO))
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
			if conn := hp.conn; conn != nil {
				if ping {
					conn.owe(kPing, 0, framePayload{})
				}
				if !hp.out.empty() {
					conn.retx = true
					conn.poke()
				}
			}
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
			ps.DupFramesDropped += hp.dupsDeduped
			ps.PlanDropped = hp.planDropped
			ps.PlanDuped = hp.planDuped
			hp.mu.Unlock()
		}
	}
	return res
}

// --- client ------------------------------------------------------------

// errHubGone ends a redial quietly: the hub stopped, or the run completed.
var errHubGone = errors.New("netrt: hub gone")

// sockControl, set only by tests, adjusts every socket before it listens or
// connects; accepted sockets inherit their listener's settings.
var sockControl func(network, address string, c syscall.RawConn) error

// listen opens a hub listener on addr.
func listen(addr string) (net.Listener, error) {
	return (&net.ListenConfig{Control: sockControl}).Listen(context.Background(), "tcp", addr)
}

// dial connects to the hub listener at addr.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	return (&net.Dialer{Timeout: timeout, Control: sockControl}).Dial("tcp", addr)
}

// churnFor returns id's churn schedule, or nil.
func churnFor(cfg *Config, id sim.PeerID) *sim.ChurnPeer {
	for i := range cfg.Churn {
		if cfg.Churn[i].Peer == id {
			return &cfg.Churn[i]
		}
	}
	return nil
}

// runClient drives a peer's protocol instance, reconnecting through
// connection loss until the protocol terminates and its DONE frame is
// acknowledged. A churn peer may go through two incarnations: the first
// crashes itself at its action count and persists a durable checkpoint;
// after the downtime a fresh instance loads the checkpoint into the
// peer's query plane, rejoins via the resume handshake, and runs to
// completion serving its warm bits locally. The plane q and the stats st
// outlive the incarnations, and q settles into st when the last one ends;
// start is the run's clock, and stop closes when the hub stops.
func runClient(cfg *Config, id sim.PeerID, addr string, q *qplane.Plane, st *sim.PeerStats,
	met *netMetrics, start time.Time, stop <-chan struct{}) error {
	defer func() { q.Settle(time.Since(start).Seconds()) }()
	churn := churnFor(cfg, id)
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
			impl:    cfg.NewPeer(id),
			start:   start,
			met:     met,
			q:       q,
			stats:   st,
			mparams: merkle.Params{TotalBits: cfg.L, LeafBits: cfg.Mirrors.EffectiveLeafBits()},
			stop:    stop,
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
		met.mark(int(id), "churn", "")
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
func (c *client) run(churn *sim.ChurnPeer, store *checkpoint.Store, rejoined bool) (crashed bool, err error) {
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
			ck, lerr := store.Load(int(id), cfg.N, cfg.T, cfg.L, cfg.Seed)
			switch {
			case lerr != nil:
				dbg("client %d: checkpoint unusable, cold rejoin: %v", id, lerr)
			case ck != nil:
				warm = ck.Tracker()
				if ck.RootKnown {
					c.root = ck.Root
					c.rootKnown = true
				}
				c.lastPhase = ck.Phase
				c.stats.CheckpointRestores++
				c.met.mark(int(id), "restore", "")
				dbg("client %d: warm rejoin with %d checkpointed bits", id, ck.WarmBits())
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
		c.impl.Init(c)
	}
	c.drainLocal()
	dbg("client %d init done, entering loop", id)
	c.loop()
	c.mu.Lock()
	conn := c.conn
	rejected := c.rejected
	connErr := c.connErr
	terminated := c.terminated
	crashed = c.crashed
	// The writer's last pass sends what is still owed: after a churn
	// crash, all the peer sent before its crash point.
	c.closing = true
	c.mu.Unlock()
	if conn != nil {
		conn.poke()
	}
	c.writers.Wait()
	dbg("client %d loop exited (terminated=%v rejected=%v crashed=%v err=%v)",
		id, terminated, rejected, crashed, connErr)
	if conn != nil && !crashed && connErr == nil {
		// Graceful: our DONE is acked (or we were rejected). Half-close and
		// drain so the hub's in-flight writes are not RST.
		if tc, ok := conn.nc.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
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
			if serr := store.Save(cs); serr != nil {
				dbg("client %d: checkpoint save failed: %v", id, serr)
			} else {
				c.mu.Lock()
				c.stats.CheckpointSaves++
				c.mu.Unlock()
			}
		}
		c.met.mark(int(id), "crash", "")
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
	// met is the run's shared observability bundle; nil when disabled.
	met *netMetrics

	stop <-chan struct{} // the hub's: nothing of the client waits past it

	mu sync.Mutex
	// conn is the installed connection; only its writer (pass) writes it.
	// writers counts running writers; closing makes a pass the last.
	conn    *frameConn
	writers sync.WaitGroup
	closing bool
	// out is the reliable client→hub stream (MSG/QUERY/DONE): replayed
	// after every reconnect, retransmitted if long unacked.
	out outbox
	// recv dedups the hub→client reliable stream: MSG, QREPLY, QPROOF and
	// QERR frames.
	recv dedupReliable
	// q is the peer's query plane (package qplane): it charges Q, serves
	// a rejoined peer's warm bits, and rules on every retry, park and
	// probe. stats is the peer's accounting. Both outlive the incarnation.
	// Guarded by mu — the read loop and the housekeeping timer both drive
	// the plane — except q.Learn, which touches only the churn tracker and
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
	churn        *sim.ChurnPeer
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
// was just passed or already hit: the caller must drop the action (the
// des runtime's CrashPolicy semantics — the exceeding action is lost).
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
		dbg("client %d: churn crash at action %d", c.id, c.actions)
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
	c.impl.OnQueryReply(qr)
}

var _ sim.Context = (*client)(nil)

// clock is t on the query plane's clock: seconds since the run started.
func (c *client) clock(t time.Time) float64 { return t.Sub(c.start).Seconds() }

// at is the wall time of plane time s.
func (c *client) at(s float64) time.Time { return c.start.Add(time.Duration(s * float64(time.Second))) }

// connect dials the hub with capped exponential backoff and starts the
// connection's writer, whose first pass acks and replays every unacked
// frame (the hub dedups overlap). It gives up once the hub has stopped.
func (c *client) connect(initial bool) error {
	for a := 0; a < c.res.ReconnectAttempts; a++ {
		if a > 0 {
			d := backoffDelay(c.nrng, a-1, c.res.ReconnectBase, c.res.ReconnectMax)
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
		c.met.cliTx(kHello, len(hello))
		if err := writeHandshake(conn, kHello, rawPayload(hello)); err != nil {
			conn.Close()
			continue
		}
		if needResume {
			if err := c.awaitResume(conn); err != nil {
				dbg("client %d: resume handshake failed: %v", c.id, err)
				conn.Close()
				continue
			}
		}
		c.mu.Lock()
		old := c.conn
		c.conn = conn
		if !initial {
			c.stats.Reconnects++
			c.met.reconnect(int(c.id))
		}
		c.out.markAllDue()
		conn.owe(kAck, 0, numPayload(c.recv.cumAck(), nil))
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
	if c.conn != conn {
		c.mu.Unlock()
		return false
	}
	now := time.Now()
	w.frames = conn.take(w.frames[:0], &c.out, now, now.Add(-4*c.res.RTO))
	last := c.closing
	c.mu.Unlock()
	for _, f := range w.frames {
		c.met.cliTx(f.kind, f.p.len())
	}
	_, err := w.write(conn, c.idle)
	return err == nil && !last
}

// awaitResume reads frames on a fresh resume connection until the hub's
// RESUME verdict arrives, then aligns both stream positions to it: the
// outbox numbers its next push above the hub's receive watermark, and the
// receive dedup restarts at the hub's outbox base, which covers replies
// as well as MSGs. Everything before the verdict is discarded: the hub
// retransmits every unacked frame against the aligned streams.
func (c *client) awaitResume(conn *frameConn) error {
	for {
		kind, _, payload, err := conn.readFrame()
		if err != nil {
			return err
		}
		c.met.cliRx(kind, len(payload))
		switch kind {
		case kResume:
			sendBase, n := binary.Uvarint(payload)
			if n <= 0 {
				return errors.New("netrt: malformed RESUME payload")
			}
			ackBase, m := binary.Uvarint(payload[n:])
			if m <= 0 {
				return errors.New("netrt: malformed RESUME payload")
			}
			c.mu.Lock()
			c.out.resumeAt(sendBase)
			c.recv.resumeAt(ackBase)
			c.needResume = false
			c.mu.Unlock()
			dbg("client %d resumed: sendBase=%d ackBase=%d", c.id, sendBase, ackBase)
			return nil
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
			dbg("client %d link down: %v", c.id, err)
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
		c.met.cliRx(kind, len(payload))
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
			c.out.ackTo(v)
			c.mu.Unlock()
		}
	case kMsg:
		if fresh, term := c.admit(seq); !fresh || term {
			return
		}
		from64, n := binary.Uvarint(payload)
		if n <= 0 {
			return
		}
		m, err := wire.Unmarshal(payload[n:], c.cfg.L)
		if err != nil {
			dbg("client %d: malformed msg from %d: %v", c.id, from64, err)
			return // malformed frame: drop, like line noise
		}
		if !c.countAction() {
			return
		}
		c.impl.OnMessage(sim.PeerID(from64), m)
	case kQReply:
		if fresh, _ := c.admit(seq); !fresh {
			return
		}
		tag, count, hdrLen, _, _, ok := scanQuery(payload, c.cfg.L)
		if !ok {
			dbg("client %d: malformed qreply", c.id)
			return
		}
		hdr, rest := payload[:hdrLen], payload[hdrLen:]
		n64, n := binary.Uvarint(rest)
		if n <= 0 || n64 > uint64(len(rest[n:])) {
			return
		}
		bits, err := bitarray.FromBytes(rest[n : n+int(n64)])
		if err != nil || bits.Len() != count {
			return // one bit per index, or it is line noise
		}
		c.complete(qkeyOfHeader(tag, hdr), hdr, bits, false)
	case kRoot:
		if len(payload) != merkle.HashBytes {
			return
		}
		c.mu.Lock()
		copy(c.root[:], payload)
		c.rootKnown = true
		c.mu.Unlock()
	case kQProof:
		if fresh, _ := c.admit(seq); !fresh {
			return
		}
		c.handleProofReply(payload)
	case kQErr:
		if fresh, _ := c.admit(seq); !fresh {
			return
		}
		tag, _, hdrLen, _, _, ok := scanQuery(payload, c.cfg.L)
		if !ok {
			dbg("client %d: malformed qerr", c.id)
			return
		}
		hdr, rest := payload[:hdrLen], payload[hdrLen:]
		if len(rest) < 1 {
			return
		}
		kind := source.Kind(rest[0])
		now := time.Now()
		c.mu.Lock()
		pq := c.owed(qkeyOfHeader(tag, hdr), hdr)
		if pq == nil || pq.state != sent || c.terminated {
			c.mu.Unlock()
			return
		}
		// An active refusal: the plane backs the call off or parks it. A
		// call not on the wire already had its attempt ruled failed — by
		// its silence or an earlier refusal — so the verdict is stale.
		c.follow(pq, c.q.Fail(c.clock(now), pq.call, kind), now)
		c.mu.Unlock()
		dbg("client %d: source %s for query tag=%d", c.id, kind, tag)
	}
}

// admit is the receive half of the hub's reliable stream for one frame:
// dedup by seq, then ack the cumulative position. Every frame is acked,
// so an ack that repeats the last one tells the hub that frames are
// arriving past a missing one (outbox.ack). term reports whether the
// protocol has already terminated.
func (c *client) admit(seq uint64) (fresh, term bool) {
	c.mu.Lock()
	fresh = c.recv.admit(seq)
	if !fresh {
		c.dupDropped()
	}
	if c.conn != nil {
		c.conn.owe(kAck, 0, numPayload(c.recv.cumAck(), nil))
	}
	term = c.terminated
	c.mu.Unlock()
	return fresh, term
}

// dupDropped counts a duplicate or ownerless frame (mu held).
func (c *client) dupDropped() {
	c.stats.DupFramesDropped++
	c.met.dupDropped(int(c.id))
}

// owed returns the oldest call awaiting a reply to a QUERY that carried
// exactly the header hdr (key is qkeyOfHeader of it), or nil: a reply
// echoing any other bytes — another query's, or noise that still parses —
// is nobody's. A call whose silence already failed it, backed off or
// parked behind the breaker, still takes a late reply. Caller holds c.mu.
func (c *client) owed(key qkey, hdr []byte) *pendingQuery {
	for _, pq := range c.queries {
		if pq.key == key && bytes.Equal(pq.payload, hdr) {
			return pq
		}
	}
	return nil
}

// pendingOf returns the pending query of call (mu held).
func (c *client) pendingOf(call *qplane.Call) *pendingQuery {
	for _, pq := range c.queries {
		if pq.call == call {
			return pq
		}
	}
	panic("netrt: the query plane released a call the client does not hold")
}

// transmit sends one more attempt of pq at now (mu held). Every send after
// the first is a query retry, and the attempt counts as silent
// QueryTimeout after it.
func (c *client) transmit(pq *pendingQuery, now time.Time) {
	pq.call.Attempt++
	pq.state = sent
	if pq.call.Attempt > 1 {
		c.stats.QueryRetries++
		c.met.queryRetry(int(c.id))
	}
	pq.deadline = now.Add(c.res.QueryTimeout)
	c.armAt(pq.deadline)
	c.push(pq.kind, rawPayload(pq.payload))
}

// follow carries out the plane's verdict n on pq at now (mu held): send a
// call now, back pq off until n.At, or park it until a wake releases it —
// arming the wake when n says so. pq is nil when n came from Wake.
func (c *client) follow(pq *pendingQuery, n qplane.Next, now time.Time) {
	switch n.Op {
	case qplane.Fetch:
		if pq == nil || pq.call != n.Call {
			pq = c.pendingOf(n.Call)
		}
		c.transmit(pq, now)
		return
	case qplane.Retry:
		pq.state, pq.deadline = backoff, c.at(n.At)
		c.armAt(pq.deadline)
		return
	case qplane.Wake:
		c.wakeAt = c.at(n.At)
		c.armAt(c.wakeAt)
	}
	if pq != nil {
		pq.state = parked
	}
}

// complete settles the oldest call owed a reply to header hdr with its
// fetched bits, one per index of its Fetch; a reply owed to nobody counts
// as a duplicate, and a parked call it answers leaves the plane's queue.
// The breaker hears of the success and, until the protocol terminates,
// every call it flushes is admitted again; then the reply, built from the
// call, reaches the protocol through the plane's Learn. mirror marks a
// verified QPROOF.
func (c *client) complete(key qkey, hdr []byte, bits *bitarray.Array, mirror bool) {
	now := time.Now()
	c.mu.Lock()
	pq := c.owed(key, hdr)
	if pq == nil {
		c.dupDropped()
		c.mu.Unlock()
		return
	}
	c.queries = slices.DeleteFunc(c.queries, func(q *pendingQuery) bool { return q == pq })
	if pq.state == parked {
		c.q.Unpark(pq.call)
	}
	if mirror {
		c.stats.MirrorHits++
	}
	nowS := c.clock(now)
	flushed, _ := c.q.Success(nowS)
	term := c.terminated
	if !term { // a terminated client sends no more queries
		for _, call := range flushed {
			c.follow(c.pendingOf(call), c.q.Admit(nowS, call), now)
		}
	}
	c.mu.Unlock()
	if !term && c.countAction() {
		c.deliver(pq.call.Reply(bits))
	}
}

// handleProofReply runs the mirror tier's client half: verify the
// proof-carrying reply against the authoritative root and either serve
// the verified bits to the protocol or flip the pending query to the
// QUERYSRC fallback. A malformed body is dropped like line noise — the
// silence deadline fails the attempt and the plane retries it.
func (c *client) handleProofReply(payload []byte) {
	tag, _, hdrLen, _, _, ok := scanQuery(payload, c.cfg.L)
	if !ok {
		dbg("client %d: malformed qproof header", c.id)
		return
	}
	hdr := payload[:hdrLen]
	rep, ok := decodeProofReply(payload[hdrLen:])
	if !ok {
		dbg("client %d: malformed qproof body", c.id)
		return
	}
	// Only this goroutine settles a pending query, so pq stays tracked
	// across the unlocked verification below.
	key := qkeyOfHeader(tag, hdr)
	c.mu.Lock()
	pq := c.owed(key, hdr)
	if pq == nil {
		c.dupDropped()
		c.mu.Unlock()
		return
	}
	rootKnown, root := c.rootKnown, c.root
	c.mu.Unlock()
	// Verify outside the lock: SHA-256 over the span must not stall the
	// housekeeping timers. An unknown root (reply raced a reconnect's
	// ROOT) counts as unverified and takes the fallback path.
	verified := rootKnown && !rep.Refused &&
		merkle.Verify(root, c.mparams, rep.LeafLo, rep.LeafHi, rep.Bits, rep.Proof)
	var bits *bitarray.Array
	if verified {
		// A verified span that does not cover the request is a mirror
		// failure, not partial coverage to be trusted.
		bits, verified = rep.Bits.GatherFrom(pq.call.Fetch, rep.LeafLo*c.mparams.LeafBits)
	}
	c.met.mirrorVerdict(int(c.id), verified, rep.Refused)
	if verified {
		c.complete(key, hdr, bits, true)
		return
	}
	// Unverified: the reply is owed but worthless. Re-issue immediately
	// on the authoritative path; every later retry of this call follows.
	now := time.Now()
	c.mu.Lock()
	if !rep.Refused {
		c.stats.ProofFailures++
	}
	c.stats.FallbackQueries++
	pq.kind = kQuerySrc
	if pq.state != parked && !c.terminated {
		pq.state = sent
		pq.deadline = now.Add(c.res.QueryTimeout)
		c.armAt(pq.deadline)
		c.push(kQuerySrc, rawPayload(pq.payload))
	}
	c.mu.Unlock()
}

// housekeepPeriod is the longest the housekeeping timer sleeps: a third
// of the idle timeout, at most 50 ms, so heartbeats and the 4·RTO replay
// keep their cadence.
func (c *client) housekeepPeriod() time.Duration {
	period := c.idle / 3
	if period > 50*time.Millisecond || period <= 0 {
		period = 50 * time.Millisecond
	}
	return period
}

// housekeeping drives the client's timers: heartbeats, the query plane's
// backoffs and breaker wakes, silence deadlines, and belt-and-braces
// retransmission of long-unacked frames, asking the writer for the last
// two. One timer sleeps until the
// earliest deadline the client holds, at most period; a deadline set
// earlier than the one it sleeps until wakes it (armAt). It never calls
// into the protocol, so the sequential contract holds.
func (c *client) housekeeping(period time.Duration) {
	tm := time.NewTimer(period)
	defer tm.Stop()
	for {
		select {
		case <-c.stopHK:
			return
		case <-c.rearm:
		case <-tm.C:
		}
		next := c.housekeep(time.Now(), period)
		// Stop and drain before Reset, as the pre-1.23 timer rules want; a
		// fire the drain misses only runs one pass early.
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		tm.Reset(time.Until(next))
	}
}

// housekeep runs one pass of the client's timers at now and returns when
// the next one is due.
func (c *client) housekeep(now time.Time, period time.Duration) time.Time {
	c.mu.Lock()
	if conn := c.conn; conn != nil {
		if now.Sub(c.lastPing) >= c.idle/3 {
			c.lastPing = now
			conn.owe(kPing, 0, framePayload{})
		}
		conn.retx = true
		conn.poke()
	}
	if !c.terminated {
		nowS := c.clock(now)
		for _, pq := range c.queries {
			switch {
			case pq.state == parked || now.Before(pq.deadline):
			case pq.state == backoff:
				c.follow(pq, c.q.Admit(nowS, pq.call), now)
			default: // silent: the attempt failed as a lost reply
				c.follow(pq, c.q.Fail(nowS, pq.call, source.KindTimeout), now)
			}
		}
		if !c.wakeAt.IsZero() && !now.Before(c.wakeAt) {
			c.wakeAt = time.Time{}
			c.follow(nil, c.q.Wake(nowS), now)
		}
	}
	next := c.nextPass(now, period)
	c.hkAt = next
	c.mu.Unlock()
	return next
}

// nextPass is when the housekeeping timer must fire after a pass at now
// (mu held): the earliest deadline of a call that is not parked — a sent
// call's silence or a backed-off one's admission — or the pending breaker
// wake, and never later than period after now. A parked call waits for
// the wake, and a terminated client serves no deadline.
func (c *client) nextPass(now time.Time, period time.Duration) time.Time {
	next := now.Add(period)
	if c.terminated {
		return next
	}
	for _, pq := range c.queries {
		if pq.state != parked && pq.deadline.Before(next) {
			next = pq.deadline
		}
	}
	if !c.wakeAt.IsZero() && c.wakeAt.Before(next) {
		next = c.wakeAt
	}
	return next
}

// armAt makes the housekeeping timer fire by at (mu held): a deadline
// earlier than the one it sleeps until wakes it to re-arm. A client whose
// timer never ran has a zero hkAt and wakes nothing.
func (c *client) armAt(at time.Time) {
	if !at.Before(c.hkAt) {
		return
	}
	c.hkAt = at
	select {
	case c.rearm <- struct{}{}:
	default:
	}
}

// push appends a frame to the reliable stream and wakes the writer (mu
// held); without a connection it waits for the replay on reconnect. A
// terminated or crashed incarnation sends nothing more.
func (c *client) push(kind byte, p framePayload) {
	if c.crashed {
		return
	}
	c.enqueue(kind, p)
}

// enqueue is push without the crash check (mu held): a broadcast whose own
// tick crashed the peer still owes the recipients it counted first.
func (c *client) enqueue(kind byte, p framePayload) {
	if c.terminated {
		return
	}
	c.out.push(kind, p)
	if c.conn != nil {
		c.conn.poke()
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
	c.push(kMsg, numPayload(uint64(to), body))
	c.mu.Unlock()
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
	c.enqueue(kBcast, rawPayload(body))
	c.mu.Unlock()
}

// Query implements sim.Context. The plane charges the query into Q and
// serves what a rejoined churn peer holds warm: a fully-warm reply is
// queued for drainLocal and never touches the wire; otherwise the rest
// goes out as a QUERY frame once the breaker admits the call.
func (c *client) Query(tag int, indices []int) {
	if !c.countAction() {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if c.terminated {
		c.mu.Unlock()
		return
	}
	b := c.q.Begin(tag, indices)
	c.met.queryCharged(int(c.id), b.Charged)
	if b.Kind == qplane.WarmHit {
		c.pendingLocal = append(c.pendingLocal, b.Reply)
		c.mu.Unlock()
		return
	}
	c.enc = appendQueryHeader(c.enc[:0], tag, b.Call.Fetch)
	payload := bytes.Clone(c.enc)
	pq := &pendingQuery{call: b.Call, payload: payload, key: qkeyOfHeader(tag, payload), kind: kQuery}
	c.queries = append(c.queries, pq)
	c.follow(pq, c.q.Admit(c.clock(now), b.Call), now)
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
	if c.terminated {
		return
	}
	var raw []byte
	if c.output != nil {
		raw = c.output.Bytes()
	}
	c.push(kDone, numPayload(uint64(len(raw)), raw))
	c.terminated = true
}

// MarkPhase implements sim.PhaseMarker: it records a phase-transition
// mark on the run's timeline at wall-clock seconds since run start.
func (c *client) MarkPhase(name string) {
	c.mu.Lock()
	c.lastPhase = name
	c.mu.Unlock()
	c.met.mark(int(c.id), "phase", name)
}

// Rand implements sim.Context.
func (c *client) Rand() *rand.Rand { return c.rng }

// Now implements sim.Context.
func (c *client) Now() float64 { return c.clock(time.Now()) }

// Logf implements sim.Context.
func (c *client) Logf(string, ...any) {}
