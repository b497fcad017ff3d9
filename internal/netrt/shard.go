package netrt

// Hub sharding: each shard owns one listener (peer id i dials shard
// i % Shards), a bounded outbound frame queue, and a writer goroutine
// that drains the queue in batches, coalescing consecutive frames to the
// same connection into a single socket write. Sharding spreads accept
// and write work across cores, and the bounded queues give the hub a
// backpressure point instead of unbounded goroutine/timer fan-out when a
// load generator outruns the sockets.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitarray"
	"repro/internal/sim"
)

// ShardBounce schedules one hub listener-shard kill/restart: After run
// start the shard's listener closes and every connection homed on it is
// severed; Down later the listener reopens on the same address, where the
// severed clients' redial backoff finds it. A bounce degrades latency,
// never correctness, so (like a FaultPlan) it never counts toward T.
type ShardBounce struct {
	// Shard indexes the bounced shard (0-based, < max(1, Config.Shards)).
	Shard int
	// After is when the shard dies, measured from run start.
	After time.Duration
	// Down is how long the listener stays down before restarting. It must
	// fit inside the clients' reconnect budget (Resilience.Reconnect*), or
	// peers homed on the shard exhaust their redials and fail the run.
	Down time.Duration
}

// defaultShardQueue bounds a shard's outbound queue when Config.ShardQueue
// is unset.
const defaultShardQueue = 1024

// maxWriteBatch caps the frames one writer pass drains from its queue;
// beyond it, latency of the first frame in the batch starts to matter
// more than syscall amortization.
const maxWriteBatch = 64

// shardFrame is one queued hub→peer frame awaiting its shard writer. Its
// body may be an outbox entry's, and is only read.
type shardFrame struct {
	hp   *hubPeer
	kind byte
	seq  uint64
	p    framePayload
}

// connBatch accumulates the encoded bytes of one flush for one peer.
type connBatch struct {
	hp     *hubPeer
	buf    []byte
	frames int
}

// hubShard is one listener/writer unit of the hub.
type hubShard struct {
	idx  int
	addr string
	q    chan shardFrame

	// lnMu guards ln, which a ShardBounce swaps at runtime: nil while the
	// shard is down, a fresh same-address listener after restart.
	lnMu sync.Mutex
	ln   net.Listener

	// Flush scratch, owned by the shard's writer goroutine.
	order  []*connBatch
	byPeer map[*hubPeer]*connBatch
	spare  []*connBatch

	// Robustness counters (also surfaced through internal/obs when
	// metrics are enabled; see netMetrics.shardEvent).
	enqueued  atomic.Int64 // frames accepted into the queue
	written   atomic.Int64 // frames that reached a socket write
	dropped   atomic.Int64 // frames discarded: connection was down at flush
	blocked   atomic.Int64 // enqueues that hit a full queue (backpressure)
	writeErrs atomic.Int64 // batched writes that failed
	flushes   atomic.Int64 // writer passes that wrote at least one frame
	restarts  atomic.Int64 // bounce recoveries: listener came back up
}

// closeListener tears the shard's listener down (bounce kill or hub
// shutdown); idempotent.
func (s *hubShard) closeListener() {
	s.lnMu.Lock()
	ln := s.ln
	s.ln = nil
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// bounceShard executes the kill half of a ShardBounce: close the listener,
// sever every connection homed on the shard, and arm the restart timer.
// Clients redial with capped backoff until restartShard brings the address
// back.
func (h *hub) bounceShard(s *hubShard, down time.Duration) {
	dbg("shard %d: bounced (down %v)", s.idx, down)
	h.met.shardEvent(s.idx, "bounce")
	s.closeListener()
	for _, hp := range h.peers {
		if h.shardFor(hp.id) != s {
			continue
		}
		hp.mu.Lock()
		conn := hp.conn
		hp.conn = nil
		hp.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
	t := time.AfterFunc(down, func() { h.restartShard(s) })
	h.mu.Lock()
	if h.closed {
		t.Stop()
	} else {
		h.timers = append(h.timers, t)
	}
	h.mu.Unlock()
}

// restartShard re-listens on the bounced shard's original address and
// restarts its accept loop. The address can linger in TIME_WAIT briefly,
// so the bind retries; clients keep backing off in the meantime. The
// wg.Add and listener install happen together under h.mu against the
// closed flag, so a racing hub close either sees the new listener (and
// closes it, unblocking the accept loop) or the restart abandons cleanly.
func (h *hub) restartShard(s *hubShard) {
	var ln net.Listener
	var err error
	for a := 0; a < 100; a++ {
		h.mu.Lock()
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		if ln, err = net.Listen("tcp", s.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		dbg("shard %d: restart failed: %v", s.idx, err)
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	h.wg.Add(1)
	h.mu.Unlock()
	s.restarts.Add(1)
	h.met.shardEvent(s.idx, "restart")
	dbg("shard %d: restarted on %s", s.idx, s.addr)
	go h.acceptLoop(s, ln) // balances the wg.Add above via its own Done
}

func newHubShard(idx int, ln net.Listener, queue int) *hubShard {
	return &hubShard{
		idx:    idx,
		ln:     ln,
		addr:   ln.Addr().String(),
		q:      make(chan shardFrame, queue),
		byPeer: make(map[*hubPeer]*connBatch),
	}
}

// shardWriter drains one shard's queue until the hub stops. Each pass
// blocks for the first frame, then opportunistically batches whatever
// else is already queued (up to maxWriteBatch) before flushing.
func (h *hub) shardWriter(s *hubShard) {
	defer h.wg.Done()
	var batch []shardFrame
	for {
		var f shardFrame
		select {
		case <-h.stop:
			return
		case f = <-s.q:
		}
		batch = append(batch[:0], f)
	fill:
		for len(batch) < maxWriteBatch {
			select {
			case f = <-s.q:
				batch = append(batch, f)
			default:
				break fill
			}
		}
		h.flushBatch(s, batch)
	}
}

// flushBatch groups a batch by destination peer, preserving per-peer
// frame order, and writes each peer's frames as one coalesced buffer.
// Frames whose connection is gone are dropped — exactly what the direct
// write path did — and the reliable stream re-delivers them later.
func (h *hub) flushBatch(s *hubShard, batch []shardFrame) {
	for _, f := range batch {
		cb := s.byPeer[f.hp]
		if cb == nil {
			if n := len(s.spare); n > 0 {
				cb = s.spare[n-1]
				s.spare = s.spare[:n-1]
			} else {
				cb = &connBatch{}
			}
			cb.hp = f.hp
			s.byPeer[f.hp] = cb
			s.order = append(s.order, cb)
		}
		cb.buf = appendFrame(cb.buf, f.kind, f.seq, f.p)
		cb.frames++
		h.met.hubTx(f.kind, f.p.len())
	}
	wrote := false
	for _, cb := range s.order {
		hp := cb.hp
		hp.mu.Lock()
		conn := hp.conn
		hp.mu.Unlock()
		if conn == nil {
			s.dropped.Add(int64(cb.frames))
			h.met.shardEventN(s.idx, "conn_down", cb.frames)
		} else {
			conn.nc.SetWriteDeadline(time.Now().Add(h.idle))
			if err := conn.writeEncoded(cb.buf); err != nil {
				s.writeErrs.Add(1)
				h.met.shardEvent(s.idx, "write_err")
			} else {
				s.written.Add(int64(cb.frames))
				h.met.shardEventN(s.idx, "written", cb.frames)
				wrote = true
			}
		}
		delete(s.byPeer, hp)
		cb.hp, cb.buf, cb.frames = nil, cb.buf[:0], 0
		s.spare = append(s.spare, cb)
	}
	s.order = s.order[:0]
	if wrote {
		s.flushes.Add(1)
		h.met.shardBatch(len(batch))
	}
}

// --- exported hub surface (load generation) ----------------------------

// ShardStats is one shard's robustness-counter snapshot.
type ShardStats struct {
	Addr string
	// Enqueued counts frames accepted into the shard queue; Written the
	// frames that reached a socket write; Dropped the frames discarded
	// because the peer's connection was down at flush time.
	Enqueued, Written, Dropped int64
	// Blocked counts enqueues that found the queue full and had to wait
	// (backpressure events); WriteErrs failed batched writes; Flushes
	// writer passes that moved at least one frame.
	Blocked, WriteErrs, Flushes int64
}

// Hub is a running hub handle for external drivers (cmd/drload): raw
// frame clients dial Addr(id) and speak the framed protocol directly,
// without the protocol client layer that Run wraps around sim.Peer.
// cfg.NewPeer is ignored and may be nil.
type Hub struct {
	h     *hub
	input *bitarray.Array
}

// StartHub validates the scale-relevant subset of cfg and starts a hub
// alone: shard listeners, writers, retransmit and heartbeat loops, but no
// protocol clients. The caller owns connection traffic and must Close.
func StartHub(cfg Config) (*Hub, error) {
	if cfg.N < 1 {
		return nil, errors.New("netrt: StartHub needs N >= 1")
	}
	if cfg.L < 1 || cfg.MsgBits < 1 {
		return nil, fmt.Errorf("netrt: StartHub needs L >= 1 and MsgBits >= 1 (got L=%d, b=%d)", cfg.L, cfg.MsgBits)
	}
	if cfg.Shards < 0 || cfg.ShardQueue < 0 {
		return nil, fmt.Errorf("netrt: negative Shards (%d) or ShardQueue (%d)", cfg.Shards, cfg.ShardQueue)
	}
	if cfg.SourceFaults != nil {
		if err := cfg.SourceFaults.Validate(); err != nil {
			return nil, fmt.Errorf("netrt: %w", err)
		}
	}
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits,
		Seed: cfg.Seed, Input: cfg.Input}).ResolveInput()
	met := newNetMetrics(&cfg, time.Now())
	h, err := newHub(cfg, input, met)
	if err != nil {
		return nil, err
	}
	return &Hub{h: h, input: input}, nil
}

// Addrs lists every shard's listen address, indexed by shard.
func (x *Hub) Addrs() []string {
	addrs := make([]string, len(x.h.shards))
	for i, s := range x.h.shards {
		addrs[i] = s.addr
	}
	return addrs
}

// Addr is the listen address peer id must dial (its shard's listener).
func (x *Hub) Addr(id sim.PeerID) string { return x.h.addrFor(id) }

// Input is the source array the hub serves.
func (x *Hub) Input() *bitarray.Array { return x.input }

// ShardStats snapshots every shard's counters, indexed by shard.
func (x *Hub) ShardStats() []ShardStats {
	stats := make([]ShardStats, len(x.h.shards))
	for i, s := range x.h.shards {
		stats[i] = ShardStats{
			Addr:      s.addr,
			Enqueued:  s.enqueued.Load(),
			Written:   s.written.Load(),
			Dropped:   s.dropped.Load(),
			Blocked:   s.blocked.Load(),
			WriteErrs: s.writeErrs.Load(),
			Flushes:   s.flushes.Load(),
		}
	}
	return stats
}

// Close stops the listeners, writers, and background loops.
func (x *Hub) Close() { x.h.close() }
