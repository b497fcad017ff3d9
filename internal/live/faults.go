package live

// Fault planes of the live runtime: the wall-clock driver of the query
// plane (package qplane) and the churn adversary's rejoin. What des
// schedules as events (evSrcIssue, evSrcFail, evSrcWake, evRejoin) the
// live runtime schedules as tracked timer callbacks, so the same
// protocols face the same adversary under real concurrency — with the
// race detector watching the recovery paths. Every callback first checks
// that its incarnation is still running: calls of a crashed incarnation
// die here, exactly as the des engine drops their events.

import (
	"repro/internal/qplane"
	"repro/internal/source"
)

// gone (mu held) reports that no source-tier work should run for the
// peer any more.
func (p *livePeer) gone() bool { return p.terminated || p.crashed || p.stopped }

// queryDelay is the adversary's query round-trip latency.
func (p *livePeer) queryDelay() float64 {
	return p.w.spec.Delays.QueryDelay(p.id, p.w.now())
}

// issueCall admits one logical query through the plane.
func (p *livePeer) issueCall(call *qplane.Call) {
	p.mu.Lock()
	if p.gone() {
		p.mu.Unlock()
		return
	}
	now := p.w.now()
	n := p.q.Admit(now, call)
	p.mu.Unlock()
	p.srcDo(now, n)
}

// srcDo carries out the plane's verdict of time now with timers: attempt
// now, re-admit after the backoff, or wake the breaker later.
func (p *livePeer) srcDo(now float64, n qplane.Next) {
	switch n.Op {
	case qplane.Fetch:
		p.fetchCall(n.Call)
	case qplane.Retry:
		p.w.after(n.At-now, func() { p.issueCall(n.Call) })
	case qplane.Wake:
		p.w.after(n.At-now, p.srcWake)
	}
}

// fetchCall performs one source attempt. Success schedules the
// protocol's query reply; failure schedules the moment the peer learns
// of it — after the query deadline for lost replies, after one round trip
// for active refusals.
func (p *livePeer) fetchCall(call *qplane.Call) {
	qr, latency, err := p.q.Fetch(p.w.now(), call)
	if err != nil {
		kind := source.KindOf(err)
		wait := p.queryDelay()
		if kind == source.KindTimeout {
			wait = p.q.Deadline()
		}
		p.w.after(wait, func() { p.srcFail(call, kind) })
		return
	}
	p.w.after(p.queryDelay()+latency, func() {
		// The reply crossed the (faulty) source: live reports the
		// success when the reply arrives.
		p.mu.Lock()
		flushed, _ := p.q.Success(p.w.now())
		p.mu.Unlock()
		for _, fc := range flushed {
			p.issueCall(fc)
		}
		p.enqueue(delivery{kind: dlQueryReply, qr: qr})
	})
}

// srcFail delivers a now-known failure to the plane.
func (p *livePeer) srcFail(call *qplane.Call, kind source.Kind) {
	p.mu.Lock()
	if p.gone() {
		p.mu.Unlock()
		return
	}
	now := p.w.now()
	n := p.q.Fail(now, call, kind)
	p.mu.Unlock()
	p.srcDo(now, n)
}

// srcWake fires when an open breaker's cooldown may have elapsed.
func (p *livePeer) srcWake() {
	p.mu.Lock()
	if p.gone() {
		p.mu.Unlock()
		return
	}
	now := p.w.now()
	n := p.q.Wake(now)
	p.mu.Unlock()
	p.srcDo(now, n)
}

// rejoin revives a crashed churn peer after its downtime: a fresh
// protocol instance restarts and its subsequent queries are answered
// from the persisted verified-index state where possible. The recovered
// peer runs honestly to completion — recovery is the whole point — but
// stays accounted faulty, so correctness aggregates never depend on it.
func (p *livePeer) rejoin() {
	p.mu.Lock()
	if !p.crashed || p.terminated || p.stats.Rejoined || p.stopped {
		p.mu.Unlock()
		return
	}
	p.crashed = false
	p.q.Rejoin(nil)
	p.crashPoint = -1
	p.actions = 0
	p.queue = nil // deliveries addressed to the dead incarnation
	p.impl = p.w.spec.NewPeer(p.id)
	// Owe a fresh Init; a worker serves it next. The crashing worker's
	// serve() returned without clearing queued (no wakeup could matter once
	// crashed), so clear it here or the ready push would be suppressed
	// forever.
	p.queued = false
	p.inited = false
	p.markReady()
	p.mu.Unlock()
}
