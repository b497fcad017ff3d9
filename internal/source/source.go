package source

import (
	"sync"

	"repro/internal/bitarray"
)

// Request is one source query attempt. Ordinal and Attempt identify the
// attempt for the fault plan's seeded decisions: Ordinal is the peer's
// monotonic query counter (stable across retries of the same logical
// query), Attempt is 1-based within that ordinal.
type Request struct {
	// Peer is the querying peer's ID.
	Peer int
	// Indices are the array positions requested.
	Indices []int
	// Ordinal is the peer's monotonic logical-query counter.
	Ordinal uint64
	// Attempt is the 1-based attempt number for this ordinal.
	Attempt int
	// Now is the runtime's current time (virtual units or seconds).
	Now float64
}

// Reply is a successful fetch: Bits.Get(j) is X[Indices[j]].
type Reply struct {
	Bits *bitarray.Array
	// Latency is extra injected reply latency the runtime must add on
	// top of its normal query round trip (0 on a clean source).
	Latency float64
}

// Source answers index queries against the external array. Fetch either
// returns the requested bits or a *Error; implementations must be safe
// for concurrent use (netrt's hub serves queries from multiple
// connection goroutines). Fetch must not keep req.Indices after it
// returns: the caller may write over the slice (the hub decodes every
// query of a connection into one buffer).
type Source interface {
	Fetch(req Request) (Reply, error)
}

// Trusted is the paper's perfectly available oracle: it answers every
// query immediately and correctly.
type Trusted struct {
	input *bitarray.Array
}

// NewTrusted wraps the input array as an infallible Source.
func NewTrusted(input *bitarray.Array) *Trusted { return &Trusted{input: input} }

// Fetch answers the query directly from the array. Out-of-range indices
// panic (callers validate against L first, as the runtimes always have).
func (t *Trusted) Fetch(req Request) (Reply, error) {
	return Reply{Bits: t.input.Gather(req.Indices)}, nil
}

// Faulty wraps a Source with a FaultPlan: queries crossing it suffer the
// plan's outages, rate limit, transient failures, lost replies, latency,
// and corruption. The token bucket is the only mutable state and is
// mutex-guarded; in the deterministic runtimes Fetch is called in a
// deterministic order at deterministic times, so bucket decisions are
// reproducible too.
type Faulty struct {
	inner Source
	plan  *FaultPlan

	mu     sync.Mutex
	tokens float64
	filled bool
	last   float64
}

// Wrap applies plan to src. A nil or do-nothing plan returns src
// unchanged, so callers can wrap unconditionally.
func Wrap(src Source, plan *FaultPlan) Source {
	if !plan.Enabled() {
		return src
	}
	return &Faulty{inner: src, plan: plan}
}

// Fetch applies the plan's decisions in order: outage, rate limit, lost
// reply, transient refusal, then the inner fetch with corruption and
// extra latency on the way back.
func (f *Faulty) Fetch(req Request) (Reply, error) {
	p := f.plan
	fail := func(k Kind) (Reply, error) {
		return Reply{}, &Error{Kind: k, Peer: req.Peer, Time: req.Now, Attempt: req.Attempt}
	}
	if _, down := p.InOutage(req.Now); down {
		return fail(KindOutage)
	}
	if !f.takeTokens(req.Now, len(req.Indices)) {
		return fail(KindRateLimit)
	}
	if p.timesOut(req.Peer, req.Ordinal, req.Attempt) {
		return fail(KindTimeout)
	}
	if p.fails(req.Peer, req.Ordinal, req.Attempt) {
		return fail(KindFlaky)
	}
	rep, err := f.inner.Fetch(req)
	if err != nil {
		return Reply{}, err
	}
	if bit, flip := p.corruptBit(req.Peer, req.Ordinal, req.Attempt, rep.Bits.Len()); flip {
		rep.Bits.Set(bit, !rep.Bits.Get(bit))
	}
	rep.Latency += p.extraLatency(req.Peer, req.Ordinal, req.Attempt)
	return rep, nil
}

// takeTokens debits the token bucket, refilling for the time elapsed
// since the last fetch. Returns false when the query's bits exceed the
// available tokens.
func (f *Faulty) takeTokens(now float64, bits int) bool {
	p := f.plan
	if p.RateBits <= 0 {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	burst := p.burst()
	if !f.filled {
		f.tokens, f.filled = burst, true
	}
	if now > f.last {
		f.tokens += (now - f.last) * float64(p.RateBits)
		if f.tokens > burst {
			f.tokens = burst
		}
		f.last = now
	}
	if f.tokens < float64(bits) {
		return false
	}
	f.tokens -= float64(bits)
	return true
}
