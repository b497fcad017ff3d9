// Package qplane is the query plane of every runtime (des under either of
// its schedulers, and netrt's socket clients): the per-peer lifecycle
// of a protocol query on its way to the external source and back, and the
// one place where the paper's query complexity Q is charged.
//
// The plane is a plain state machine. It has no clock, goroutine or
// scheduler: every transition takes the caller's notion of "now" and
// returns a Next telling the driver what to schedule. The drivers own
// only the timing — des turns a Next into timed events under Run and into
// chooser-ordered pending events under RunChoices, netrt into QUERY
// frames and a timer armed at the earliest deadline — so one lifecycle
// serves three drivers:
//
//	Begin ─┬─ WarmHit ───────────────────────────────► reply
//	       ├─ Oracle ────────────────────────────────► reply
//	       └─ Issue ─► Admit ─┬─ Fetch ─┬─ ok ─► Success, Learn ─► reply
//	                          │         └─ err ─► Fail ─┬─ Retry ─► Admit
//	                          └─ parked ◄───────────────┘
//	                               │  Wake (at most one pending)
//	                               └─ probe ─► Fetch;  Success flushes the rest
//
// On a remote tier (NewRemoteTier) the source is across a wire: the
// driver's request is the Fetch and its reply goes through Call.Reply. A
// reply that never comes is a lost reply on every runtime — the driver
// calls Fail with source.KindTimeout past its deadline — and one that
// comes after Fail parked its call goes through Unpark.
//
// A Plane is not safe for concurrent use; Fetch alone touches no mutable
// plane state, so a driver may run it outside whatever guards the rest.
package qplane

import (
	"fmt"
	"slices"

	"repro/internal/bitarray"
	"repro/internal/sim"
	"repro/internal/source"
)

// Tier is the run-wide source tier shared by every peer's plane: the
// input, fault-wrapped when a plan is set, fronted by the untrusted
// mirror fleet when one is configured.
type Tier struct {
	l int // bits in the array
	// input is nil on a remote tier, which has no in-process source:
	// Begin then answers only WarmHit or Issue.
	input *bitarray.Array
	// src is nil for the paper's perfectly available source: Begin then
	// answers from the input directly, which keeps the no-fault goldens
	// and allocation budgets byte-identical.
	src    source.Source
	mirror *source.Mirrored
	// policy drives the per-peer retry/breaker clients; they exist only
	// under a fault plan (a mirror fleet alone never fails a query).
	policy  source.Policy
	clients bool
}

// NewTier builds the source tier for one run of n peers. A zero
// policy.Seed derives the backoff-jitter seed from the run seed, so retry
// schedules are reproducible without extra configuration.
func NewTier(input *bitarray.Array, n int, seed int64,
	faults *source.FaultPlan, mirrors *source.MirrorPlan, policy source.Policy) *Tier {
	t := NewRemoteTier(input.Len(), seed, policy)
	t.input, t.clients = input, faults.Enabled()
	if faults.Enabled() || mirrors.Enabled() {
		t.src = source.Wrap(source.NewTrusted(input), faults)
		if mirrors.Enabled() {
			// Verification failures fall back to the authoritative tier.
			t.mirror = source.NewMirrored(input, mirrors, n, t.src)
			t.src = t.mirror
		}
	}
	return t
}

// NewRemoteTier builds the tier of a runtime whose source lives across a
// wire (netrt's hub) for an array of l bits. Every peer gets a
// retry/breaker client: the remote source's refusals reach it as
// failures whatever plan the far side runs.
func NewRemoteTier(l int, seed int64, policy source.Policy) *Tier {
	if policy.Seed == 0 {
		policy.Seed = seed ^ 0x50c0_5eed
	}
	return &Tier{l: l, policy: policy, clients: true}
}

// NewPlane returns peer's plane. Everything the plane accounts — Q, warm
// hits, and at Settle the source and mirror counters — lands in stats. A
// churn peer persists its source-verified bits so that after Rejoin its
// queries are served warm where possible.
func (t *Tier) NewPlane(peer int, stats *sim.PeerStats, churn bool) *Plane {
	p := &Plane{tier: t, peer: peer, stats: stats}
	if t.clients {
		p.client = source.NewClient(peer, t.policy)
	}
	if churn {
		p.persist = bitarray.NewTracker(t.l)
	}
	return p
}

// Call is one logical protocol query in flight through the source tier.
// It survives retries (Attempt increments per Fetch, and stays monotonic
// across parking so every probe rolls fresh fault decisions) and the
// reply always covers the full original index set, so protocols never
// see partial replies.
type Call struct {
	Tag     int
	Indices []int // the protocol's full request
	Fetch   []int // the subset charged to Q and sent to the source
	Ordinal uint64
	Attempt int

	pos  []int           // positions of Fetch within Indices; nil = identity
	bits *bitarray.Array // warm-served values, nil without a warm split
}

// Reply builds the protocol's reply from the fetched bits, one per Fetch
// index: after a warm split they are merged into the warm-served ones.
func (c *Call) Reply(fetched *bitarray.Array) sim.QueryReply {
	bits := fetched
	if c.pos != nil {
		for k, j := range c.pos {
			c.bits.Set(j, fetched.Get(k))
		}
		bits = c.bits
	}
	return sim.QueryReply{Tag: c.Tag, Indices: c.Indices, Bits: bits}
}

// Kind says how a begun query gets its reply.
type Kind uint8

const (
	// Issue: Call must go through Admit and the source tier.
	Issue Kind = iota + 1
	// Oracle: Reply is complete; it is due after one query round trip.
	Oracle
	// WarmHit: Reply was served entirely from persisted bits; there is
	// no source round trip.
	WarmHit
)

// Begun is the outcome of Begin.
type Begun struct {
	Kind Kind
	// Charged is the number of bits this query added to Q.
	Charged int
	Reply   sim.QueryReply // Oracle and WarmHit
	Call    *Call          // Issue
}

// Op is what the driver must schedule after a transition.
type Op uint8

const (
	// Idle: nothing to schedule (the call waits behind an already pending
	// wake, or the wake found nothing to release).
	Idle Op = iota
	// Fetch: perform Call's next source attempt now.
	Fetch
	// Retry: pass Call to Admit again at time At (backoff).
	Retry
	// Wake: call Wake at time At (never earlier than now).
	Wake
)

// Next is a transition's instruction to the driver.
type Next struct {
	Op   Op
	Call *Call
	At   float64
}

// Plane is one peer's query lifecycle state.
type Plane struct {
	tier    *Tier
	peer    int
	stats   *sim.PeerStats
	client  *source.Client
	parked  []*Call // queries waiting out an open breaker
	wakeSet bool    // a Wake is pending
	ordinal uint64  // monotonic logical-query counter
	persist *bitarray.Tracker
}

// Begin starts one protocol query and is the only place Q is charged. A
// rejoined churn peer is served from its persisted (source-verified)
// bits where possible: warm bits are free, only the remainder is charged
// and sent to the source. Out-of-range indices are a protocol bug. Begin
// keeps indices, which the caller hands over (sim.Context.Query): it is
// the reply's Indices and, without a warm split, the Call's Fetch.
func (p *Plane) Begin(tag int, indices []int) Begun {
	input, l := p.tier.input, p.tier.l
	for _, idx := range indices {
		if idx < 0 || idx >= l {
			panic(fmt.Sprintf("qplane: peer %d queried out-of-range index %d", p.peer, idx))
		}
	}
	var (
		warm  *bitarray.Array
		pos   []int
		fetch = indices
	)
	if p.stats.Rejoined && p.persist != nil {
		warm = bitarray.New(len(indices))
		for j, idx := range indices {
			if v, ok := p.persist.Get(idx); ok {
				warm.Set(j, v)
			} else {
				pos = append(pos, j)
			}
		}
		if len(pos) == len(indices) {
			warm, pos = nil, nil // nothing persisted: plain query
		} else {
			fetch = make([]int, len(pos))
			for k, j := range pos {
				fetch[k] = indices[j]
			}
			p.stats.WarmHitBits += len(indices) - len(fetch)
		}
	}
	p.stats.QueryBits += len(fetch)
	p.stats.QueryCalls++
	b := Begun{Charged: len(fetch)}
	switch {
	case warm != nil && len(pos) == 0:
		b.Kind = WarmHit
		b.Reply = sim.QueryReply{Tag: tag, Indices: indices, Bits: warm}
	case p.tier.src != nil || input == nil:
		p.ordinal++
		b.Kind = Issue
		b.Call = &Call{Tag: tag, Indices: indices, Fetch: fetch, Ordinal: p.ordinal, pos: pos, bits: warm}
	default:
		bits := warm
		if bits == nil {
			bits = input.Gather(indices) // in range: checked above, ahead of the charge
		} else {
			for k, j := range pos {
				bits.Set(j, input.Get(fetch[k]))
			}
		}
		b.Kind = Oracle
		b.Reply = sim.QueryReply{Tag: tag, Indices: indices, Bits: bits}
	}
	return b
}

// Admit passes c through the peer's breaker: Fetch when it may be
// attempted now, otherwise c is parked. Queries are never abandoned —
// the protocol is owed a reply — so a parked call waits for the source
// to heal.
func (p *Plane) Admit(now float64, c *Call) Next {
	if p.client != nil {
		if ok, wake := p.client.Admit(now); !ok {
			return p.park(now, c, wake)
		}
	}
	return Next{Op: Fetch, Call: c}
}

// Fetch performs one source attempt for c. On success the reply covers
// the protocol's full request and latency is extra injected reply delay;
// the driver reports the success through Success when its clock says the
// reply has arrived. On failure the driver reports source.KindOf(err)
// through Fail when its clock says the peer learns of it.
func (p *Plane) Fetch(now float64, c *Call) (reply sim.QueryReply, latency float64, err error) {
	c.Attempt++
	rep, err := p.tier.src.Fetch(source.Request{
		Peer: p.peer, Indices: c.Fetch, Ordinal: c.Ordinal, Attempt: c.Attempt, Now: now,
	})
	if err != nil {
		if p.client == nil {
			// Without a fault plan the tier is mirror + trusted, which
			// always falls back to a correct answer.
			panic(fmt.Sprintf("qplane: source failed without a fault plan: %v", err))
		}
		return sim.QueryReply{}, 0, err
	}
	return c.Reply(rep.Bits), rep.Latency, nil
}

// Deadline is how long the peer waits before it declares a lost reply
// (source.KindTimeout) failed.
func (p *Plane) Deadline() float64 { return p.client.Policy().Deadline }

// Fail lets the client rule on a now-known failure of c's last attempt:
// Retry after backoff, or park behind the opened breaker.
func (p *Plane) Fail(now float64, c *Call, kind source.Kind) Next {
	retryAt, park := p.client.OnFailure(now, kind, c.Ordinal, c.Attempt)
	if park {
		return p.park(now, c, p.client.WakeAt())
	}
	return Next{Op: Retry, Call: c, At: retryAt}
}

func (p *Plane) park(now float64, c *Call, wake float64) Next {
	p.parked = append(p.parked, c)
	return p.armWake(now, wake)
}

// armWake keeps at most one wake pending per peer; Wake re-evaluates and
// re-arms if it fired early, so a single outstanding wake is enough for
// liveness.
func (p *Plane) armWake(now, at float64) Next {
	if p.wakeSet {
		return Next{}
	}
	p.wakeSet = true
	if at < now {
		at = now
	}
	return Next{Op: Wake, At: at}
}

// Wake fires when an open breaker's cooldown may have elapsed: it
// releases one parked call as the half-open probe. The probe's outcome
// drives everything else — success flushes the parked queue, failure
// re-opens and arms the next wake.
func (p *Plane) Wake(now float64) Next {
	p.wakeSet = false
	if p.client == nil || len(p.parked) == 0 {
		return Next{}
	}
	switch p.client.State() {
	case source.StateHalfOpen:
		return Next{} // a probe is already in flight; its outcome decides
	case source.StateOpen:
		if now < p.client.WakeAt() {
			// The breaker re-opened after this wake was armed.
			return p.armWake(now, p.client.WakeAt())
		}
	}
	ok, wake := p.client.Admit(now)
	if !ok {
		return p.armWake(now, wake)
	}
	c := p.parked[0]
	p.parked = p.parked[1:]
	return Next{Op: Fetch, Call: c}
}

// Success feeds the breaker a reply that crossed the source. closed
// reports a half-open breaker closing; the driver then passes every
// flushed call to Admit again, in order.
func (p *Plane) Success(now float64) (flushed []*Call, closed bool) {
	if p.client == nil || !p.client.OnSuccess(now) {
		return nil, false
	}
	flushed, p.parked = p.parked, nil
	return flushed, true
}

// Unpark takes c out of the parked queue: on a remote tier a reply slower
// than the driver's deadline can come in after its call was ruled lost
// and parked.
func (p *Plane) Unpark(c *Call) {
	p.parked = slices.DeleteFunc(p.parked, func(x *Call) bool { return x == c })
}

// Parked is the number of calls waiting out an open breaker.
func (p *Plane) Parked() int { return len(p.parked) }

// Learn persists a delivered reply's source-verified bits so a churn
// rejoin resumes warm instead of re-downloading.
func (p *Plane) Learn(qr sim.QueryReply) {
	if p.persist != nil {
		p.persist.LearnIndexedFromSource(qr.Indices, qr.Bits)
	}
}

// Persist is a churn peer's tracker of persisted bits (nil for any other
// peer), for a driver that checkpoints it.
func (p *Plane) Persist() *bitarray.Tracker { return p.persist }

// Rejoin starts a churn peer's second incarnation: in-flight calls of
// the old one died with it — a half-open probe among them, so the next
// Admit probes afresh — and from here on Begin serves warm. A driver
// whose persisted bits survive a crash only in a durable checkpoint hands
// over the checkpoint's tracker as warm; nil keeps the plane's own.
func (p *Plane) Rejoin(warm *bitarray.Tracker) {
	if warm != nil {
		p.persist = warm
	}
	if p.client != nil {
		p.client.DropProbe()
	}
	p.parked = nil
	p.wakeSet = false
	p.stats.Rejoined = true
}

// Settle closes the books at the end of a run: a still-open degraded
// interval is folded in and the client's and the mirror fleet's counters
// are copied into the peer's stats. It returns the client's full
// counters (zero without a fault plan) for per-kind metrics.
func (p *Plane) Settle(now float64) source.Stats {
	var st source.Stats
	if p.client != nil {
		p.client.Settle(now)
		st = p.client.Stats()
		p.stats.SourceRetries = st.Retries
		p.stats.SourceFailures = st.Failures
		p.stats.BreakerOpens = st.BreakerOpens
		p.stats.DeferredQueries = st.Deferred
		p.stats.DegradedTime = st.DegradedTime
	}
	if m := p.tier.mirror; m != nil {
		ms := m.PeerStats(p.peer)
		p.stats.MirrorHits = ms.MirrorHits
		p.stats.ProofFailures = ms.ProofFailures
		p.stats.FallbackQueries = ms.FallbackQueries
	}
	return st
}
