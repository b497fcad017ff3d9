package netrt

// Load generation: GenerateLoad drives many simulated protocol clients
// against a running Hub using raw query frames, measuring closed-loop
// query latency. Logical clients are multiplexed over a small number of
// TCP connections — each connection is one hub peer, and the logical
// client's identity rides in the query tag (zig-zag varint, echoed back
// verbatim in the reply header), so a million clients need no wire
// changes and no per-client socket. Every logical client is closed-loop
// (at most one outstanding query), and a window bounds how many clients
// per connection are in flight at once, and so how many replies the hub's
// outbox holds toward the connection.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// LoadSpec configures one GenerateLoad run.
type LoadSpec struct {
	// Clients is the number of simulated logical clients; Conns the TCP
	// connections they are multiplexed over (capped at Clients).
	Clients, Conns int
	// QueriesPerClient is each client's closed-loop query count
	// (default 1); BitsPerQuery the indices per query (default 8).
	QueriesPerClient, BitsPerQuery int
	// Window bounds the in-flight clients per connection (default 256).
	Window int
	// Timeout bounds the whole run (default 60s). Queries unanswered at
	// the deadline are reported as dropped, not retried.
	Timeout time.Duration
}

func (s *LoadSpec) withDefaults() LoadSpec {
	d := *s
	if d.QueriesPerClient < 1 {
		d.QueriesPerClient = 1
	}
	if d.BitsPerQuery < 1 {
		d.BitsPerQuery = 8
	}
	if d.Window < 1 {
		d.Window = 256
	}
	if d.Timeout <= 0 {
		d.Timeout = 60 * time.Second
	}
	if d.Conns > d.Clients {
		d.Conns = d.Clients
	}
	return d
}

// LoadResult is the aggregate outcome of one GenerateLoad run.
type LoadResult struct {
	// Queries counts queries sent; Replies the replies received. Their
	// difference is the drop count (zero on a healthy hub: no fault plan
	// runs under load generation, so TCP plus the hub answer everything).
	Queries, Replies int64
	// Duration is first query sent → last reply received (or deadline).
	Duration time.Duration
	// LatenciesMs holds every closed-loop query latency, sorted ascending.
	LatenciesMs []float64
	// TimedOut reports the run hit LoadSpec.Timeout before completing.
	TimedOut bool
}

// Percentile returns the p-th latency percentile in milliseconds
// (nearest-rank on the sorted sample), 0 when no replies arrived.
func (r *LoadResult) Percentile(p float64) float64 {
	n := len(r.LatenciesMs)
	if n == 0 {
		return 0
	}
	rank := int(p / 100 * float64(n))
	if rank >= n {
		rank = n - 1
	}
	if rank < 0 {
		rank = 0
	}
	return r.LatenciesMs[rank]
}

// connLoad is the per-connection driver state; one goroutine owns it.
type connLoad struct {
	spec LoadSpec
	l    int
	conn *frameConn
	out  frameBatch // frames not yet written: see flush
	seq  uint64
	// idx and hdr are where sendNext builds a query's indices and header.
	idx []int
	hdr []byte
	// recv dedups the hub's reliable stream, which the replies ride, and
	// acked is the cumulative position last acked to the hub.
	recv  dedupReliable
	acked uint64
	first int // global id of this conn's first logical client
	count int // logical clients on this conn

	remaining []int32 // queries left per local client
	issued    []int32 // queries sent per local client
	sentAt    []time.Time
	nextStart int
	inflight  int
	completed int

	queries, replies int64
	// latencies is this connection's window of GenerateLoad's one sample
	// array: room for every query its clients send, so a reply's sample
	// never grows it.
	latencies []float64
}

// sendNext issues local client li's next query: BitsPerQuery consecutive
// indices at a (client, ordinal)-derived offset, tagged with the client's
// global id so the reply routes back without per-client connections. The
// query is timed from here, and leaves with the next flush.
func (c *connLoad) sendNext(li int) {
	global := c.first + li
	ord := int(c.issued[li])
	c.issued[li]++
	span := max(c.l-c.spec.BitsPerQuery, 1)
	start := (global*31 + ord*17) % span
	c.idx = c.idx[:0]
	for i := range c.spec.BitsPerQuery {
		c.idx = append(c.idx, start+i)
	}
	c.seq++
	// The indices are one run, so the header is at most 41 bytes: add
	// copies it next to the frame's own, and c.hdr is free again at once.
	c.hdr = appendQueryHeader(c.hdr[:0], global, c.idx)
	c.sentAt[li] = time.Now()
	_ = c.out.add(kQuery, c.seq, rawPayload(c.hdr))
	c.queries++
	c.inflight++
}

// flush writes the queries issued since the last one and one cumulative
// ACK of the replies read since, in one write. run calls it whenever it is
// about to wait for the socket — the pipelined client's rule — so the
// queries that one read's worth of replies released travel together, and
// none is held while the connection is idle. An ACK that would not advance
// is left out: to the hub, a repeated ACK means a missing frame.
func (c *connLoad) flush() error {
	if ack := c.recv.cumAck(); ack > c.acked {
		_ = c.out.add(kAck, 0, numPayload(ack, nil))
		c.acked = ack
	}
	if c.out.frames == 0 {
		return nil
	}
	return c.conn.writeFrames(&c.out)
}

// run drives this connection to completion or the deadline.
func (c *connLoad) run(deadline time.Time) error {
	for c.nextStart < c.count && c.inflight < c.spec.Window {
		c.sendNext(c.nextStart)
		c.nextStart++
	}
	c.conn.nc.SetReadDeadline(deadline)
	for c.completed < c.count {
		if c.conn.r.Buffered() == 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
		kind, seq, payload, err := c.conn.readFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil // deadline: unanswered queries count as drops
			}
			return err
		}
		if seq > 0 && !c.recv.admit(seq) {
			continue // retransmitted
		}
		if kind != kQReply {
			continue // acks, pings
		}
		tag, _, _, _, _, ok := scanQuery(payload, c.l)
		if !ok {
			continue
		}
		li := tag - c.first
		if li < 0 || li >= c.count || c.sentAt[li].IsZero() {
			continue // not ours or not outstanding
		}
		c.latencies = append(c.latencies, float64(time.Since(c.sentAt[li]))/float64(time.Millisecond))
		c.sentAt[li] = time.Time{}
		c.replies++
		c.inflight--
		c.remaining[li]--
		switch {
		case c.remaining[li] > 0:
			c.sendNext(li)
		default:
			c.completed++
			if c.nextStart < c.count {
				c.sendNext(c.nextStart)
				c.nextStart++
			}
		}
	}
	return c.flush() // the last replies' ACK, so the hub retransmits none of them
}

// GenerateLoad runs the load spec against the hub and aggregates the
// outcome. The hub must have been started with N ≥ spec.Conns: each
// connection registers as hub peer i and dials that peer's shard.
func (x *Hub) GenerateLoad(spec LoadSpec) (*LoadResult, error) {
	s := spec.withDefaults()
	if s.Clients < 1 || s.Conns < 1 {
		return nil, fmt.Errorf("netrt: load spec needs Clients >= 1 and Conns >= 1 (got %d, %d)", s.Clients, s.Conns)
	}
	if s.Conns > x.h.cfg.N {
		return nil, fmt.Errorf("netrt: %d conns exceed the hub's N=%d peers", s.Conns, x.h.cfg.N)
	}
	per := s.Clients / s.Conns
	extra := s.Clients % s.Conns
	drivers := make([]*connLoad, s.Conns)
	// One sample per query, each connection filling its own window.
	samples := make([]float64, s.Clients*s.QueriesPerClient)
	next := 0
	for i := range drivers {
		count := per
		if i < extra {
			count++
		}
		lo, hi := next*s.QueriesPerClient, (next+count)*s.QueriesPerClient
		d := &connLoad{
			spec:      s,
			l:         x.h.cfg.L,
			first:     next,
			count:     count,
			remaining: make([]int32, count),
			issued:    make([]int32, count),
			sentAt:    make([]time.Time, count),
			latencies: samples[lo:lo:hi],
		}
		for j := range d.remaining {
			d.remaining[j] = int32(s.QueriesPerClient)
		}
		next += count
		drivers[i] = d
	}

	// Dial and register every connection before any traffic starts, so a
	// setup failure never leaves half a fleet running.
	for i, d := range drivers {
		id := sim.PeerID(i)
		conn, err := dial(x.h.addrFor(id), 10*time.Second)
		if err == nil {
			// No idle deadline: run reads against the trial's own.
			d.conn = newFrameConn(conn, 0)
			err = writeHandshake(d.conn, kHello, rawPayload(binary.AppendUvarint(nil, uint64(id))))
		}
		if err != nil {
			for _, prev := range drivers[:i] {
				prev.conn.Close()
			}
			if conn != nil {
				conn.Close()
			}
			return nil, fmt.Errorf("netrt: load conn %d: %w", i, err)
		}
	}

	start := time.Now()
	deadline := start.Add(s.Timeout)
	var wg sync.WaitGroup
	errs := make(chan error, s.Conns)
	for _, d := range drivers {
		wg.Add(1)
		go func(d *connLoad) {
			defer wg.Done()
			defer d.conn.Close()
			if err := d.run(deadline); err != nil {
				errs <- err
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// A window with missing replies leaves a gap: compacting moves each
	// window down onto the end of the ones before it, in place.
	res := &LoadResult{Duration: time.Since(start), LatenciesMs: samples[:0]}
	for _, d := range drivers {
		res.Queries += d.queries
		res.Replies += d.replies
		res.LatenciesMs = append(res.LatenciesMs, d.latencies...)
	}
	res.TimedOut = res.Replies < res.Queries || time.Now().After(deadline)
	sort.Float64s(res.LatenciesMs)
	return res, nil
}
