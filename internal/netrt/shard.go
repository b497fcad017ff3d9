package netrt

// Hub sharding: each shard owns one listener (peer id i dials shard
// i % Shards) and its accept loop, which spreads accept work across
// listeners and lets a ShardBounce take a slice of the peers down. Writes
// are not the shards' business: every connection has one writer of its
// own (hub.pass), its peer's outbox is its queue, and TCP's window is the
// back-pressure. A shard only tallies what its peers' writers did.

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

// hubShard is one listener unit of the hub.
type hubShard struct {
	idx  int
	addr string

	// lnMu guards ln, which a ShardBounce swaps at runtime: nil while the
	// shard is down, a fresh same-address listener after restart.
	lnMu sync.Mutex
	ln   net.Listener

	// Robustness counters, kept by the writers of the shard's peers (also
	// surfaced through internal/obs when metrics are enabled; see
	// netMetrics.shardEvent).
	enqueued  atomic.Int64 // frames a writer pass took or dropped
	written   atomic.Int64 // frames that reached a socket write
	dropped   atomic.Int64 // frames still owed to a connection that went away
	writeErrs atomic.Int64 // writes that failed
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
	s.closeListener()
	for _, hp := range h.peers {
		if h.shardFor(hp.id) == s {
			hp.sever()
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
		if ln, err = listen(s.addr); err == nil {
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
	dbg("shard %d: restarted on %s", s.idx, s.addr)
	go h.acceptLoop(s, ln) // balances the wg.Add above via its own Done
}

func newHubShard(idx int, ln net.Listener) *hubShard {
	return &hubShard{idx: idx, ln: ln, addr: ln.Addr().String()}
}

// --- exported hub surface (load generation) ----------------------------

// ShardStats is one shard's robustness-counter snapshot.
type ShardStats struct {
	Addr string
	// Enqueued counts the frames the writers of the shard's peers took or
	// dropped; Written the frames that reached a socket write; Dropped
	// the frames discarded because their connection went away before its
	// writer sent them.
	Enqueued, Written, Dropped int64
	// WriteErrs counts failed writes; Flushes writer passes that moved at
	// least one frame.
	WriteErrs, Flushes int64
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
// alone: shard listeners and the retransmit and heartbeat clock, but no
// protocol clients. The caller owns connection traffic and must Close.
func StartHub(cfg Config) (*Hub, error) {
	if cfg.N < 1 {
		return nil, errors.New("netrt: StartHub needs N >= 1")
	}
	if cfg.L < 1 || cfg.MsgBits < 1 {
		return nil, fmt.Errorf("netrt: StartHub needs L >= 1 and MsgBits >= 1 (got L=%d, b=%d)", cfg.L, cfg.MsgBits)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("netrt: negative Shards (%d)", cfg.Shards)
	}
	if cfg.SourceFaults != nil {
		if err := cfg.SourceFaults.Validate(); err != nil {
			return nil, fmt.Errorf("netrt: %w", err)
		}
	}
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits,
		Seed: cfg.Seed, Input: cfg.Input}).ResolveInput()
	start := time.Now()
	h, err := newHub(cfg, input, newNetMetrics(&cfg), newEvents(&cfg, start), start)
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
			WriteErrs: s.writeErrs.Load(),
			Flushes:   s.flushes.Load(),
		}
	}
	return stats
}

// Close stops the listeners, writers, and background loops.
func (x *Hub) Close() { x.h.close() }
