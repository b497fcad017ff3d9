package netrt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/bitarray"
	"repro/internal/hashmix"
	"repro/internal/merkle"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// qkey identifies one logical source query for reply matching: the tag
// plus a hash of the QUERY header's bytes (SPEC §2.3: a retry is the
// identical QUERY frame), so concurrent same-tag queries with different
// indices keep separate retry state.
type qkey struct {
	tag int
	h   uint64
}

// qkeyOfHeader keys a query by its encoded header: the client hashes the
// payload it encoded and, for a reply, the header bytes the reply echoes,
// so no index list is built to match a query.
// Eight header bytes cost one Mix, which is a bijection: headers of one
// length that differ in a single byte always get different keys. The words
// go round four lanes because one Mix must finish before the next on its
// lane can start, and a whole-array header is 32,768 of them.
func qkeyOfHeader(tag int, hdr []byte) qkey {
	lane := [4]uint64{0x9E3779B97F4A7C15 ^ uint64(len(hdr)), 1, 2, 3}
	for ; len(hdr) >= 32; hdr = hdr[32:] {
		lane[0] = hashmix.Mix(lane[0] ^ binary.LittleEndian.Uint64(hdr))
		lane[1] = hashmix.Mix(lane[1] ^ binary.LittleEndian.Uint64(hdr[8:]))
		lane[2] = hashmix.Mix(lane[2] ^ binary.LittleEndian.Uint64(hdr[16:]))
		lane[3] = hashmix.Mix(lane[3] ^ binary.LittleEndian.Uint64(hdr[24:]))
	}
	var tail [32]byte
	copy(tail[:], hdr)
	h := uint64(0)
	for i, l := range lane {
		h = hashmix.Mix(h ^ hashmix.Mix(l^binary.LittleEndian.Uint64(tail[8*i:])))
	}
	return qkey{tag: tag, h: h}
}

// pendingQuery is one call of the query plane awaiting its reply, with
// its wire state. The reply is built from the call, never from the
// indices a reply frame claims.
type pendingQuery struct {
	call    *qplane.Call
	payload []byte // encoded header of call.Fetch, re-sent verbatim on retry
	key     qkey   // qkeyOfHeader of payload
	// kind is the frame kind the call (re-)issues as: kQuery on the
	// mirror path, flipped to kQuerySrc once a proof fails so every
	// retry goes authoritative.
	kind  byte
	state qstate
	// deadline is when a sent call counts as silent, or when a backed-off
	// one is due for admission.
	deadline time.Time
}

// qstate is where a pending call stands with the query plane.
type qstate uint8

const (
	sent    qstate = iota // on the wire, a reply owed
	backoff               // failed; the plane admits it again at its deadline
	parked                // held by the plane behind the open breaker
)

// dupDropped counts an ownerless reply (mu held).
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
		c.ev.peer(sim.KindQRetry, c.id, "", len(pq.call.Fetch))
	}
	pq.deadline = now.Add(c.res.QueryTimeout)
	c.armAt(pq.deadline)
	c.push(pq.kind, rawPayload(pq.payload))
}

// fail rules pq's attempt failed as kind at now (mu held): a "qfail"
// event, and the plane's verdict on it.
func (c *client) fail(pq *pendingQuery, kind source.Kind, now time.Time) {
	c.ev.peer(sim.KindQFail, c.id, kind.String(), len(pq.call.Fetch))
	c.follow(pq, c.q.Fail(c.clock(now), pq.call, kind), now)
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

// refused takes a QERR for the call owed a reply to header hdr: an active
// refusal, on which the plane backs the call off or parks it. A call not on
// the wire already had its attempt ruled failed — by its silence or an
// earlier refusal — so the verdict is stale.
func (c *client) refused(key qkey, hdr []byte, kind source.Kind) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if pq := c.owed(key, hdr); pq != nil && pq.state == sent && !c.terminated {
		c.fail(pq, kind, now)
		dbg("client %d: source %s for query tag=%d", c.id, kind, key.tag)
	}
}

// handleProofReply runs the mirror tier's client half: verify the
// proof-carrying reply against the authoritative root and either serve
// the verified bits to the protocol or flip the pending query to the
// QUERYSRC fallback. A malformed body is dropped like line noise — the
// silence deadline fails the attempt and the plane retries it.
func (c *client) handleProofReply(key qkey, hdr, body []byte) {
	rep, ok := decodeProofReply(body)
	if !ok {
		dbg("client %d: malformed qproof body", c.id)
		return
	}
	// Only this goroutine settles a pending query, so pq stays tracked
	// across the unlocked verification below.
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
	if !verified && !rep.Refused {
		c.ev.peer(sim.KindProofFail, c.id, "", len(pq.call.Fetch))
	}
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
	ping := c.conn != nil && now.Sub(c.lastPing) >= c.idle/3
	if ping {
		c.lastPing = now
	}
	c.tick(ping)
	if !c.terminated {
		nowS := c.clock(now)
		for _, pq := range c.queries {
			switch {
			case pq.state == parked || now.Before(pq.deadline):
			case pq.state == backoff:
				c.follow(pq, c.q.Admit(nowS, pq.call), now)
			default: // silent: the attempt failed as a lost reply
				c.fail(pq, source.KindTimeout, now)
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
	c.ev.peer(sim.KindQuery, c.id, "", b.Charged)
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
