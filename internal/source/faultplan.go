package source

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hashmix"
)

// Window is one closed-open interval [Start, End) of source downtime.
type Window struct {
	Start, End float64
}

// FaultPlan is a seeded source fault schedule, the source-tier analogue
// of netrt.FaultPlan: every per-query decision — transient failure, lost
// reply, extra latency, reply corruption — is a pure function of
// (Seed, peer, query ordinal, attempt) computed via hashmix.Mix64, so
// two runs with the same plan impose the same fault schedule on the same
// query traffic regardless of scheduling. Outage windows and the token
// bucket depend additionally on the query's timestamp, which in the des
// and dst runtimes is itself deterministic.
//
// Liveness under a plan comes from the client's resilience layer, not
// from the plan being gentle: each retry attempt rolls fresh decisions,
// so any FailRate/TimeoutRate < 1 eventually admits a query, and outage
// windows are finite by validation — mirroring netrt's "partitions must
// heal" rule.
type FaultPlan struct {
	// Seed selects the fault landscape. Runs with equal Seed (and equal
	// rates) make identical per-query decisions.
	Seed int64
	// Outages lists downtime windows [Start, End) in runtime time units
	// (virtual units in des/dst, seconds in netrt). Every query issued
	// inside a window fails with KindOutage.
	Outages []Window
	// FailRate is the per-attempt probability of a transient
	// KindFlaky failure (the source actively refuses). In [0, 1).
	FailRate float64
	// TimeoutRate is the per-attempt probability the reply is lost:
	// the client learns of the failure only when its per-query deadline
	// expires (KindTimeout). In [0, 1).
	TimeoutRate float64
	// CorruptRate is the per-reply probability that one bit of the
	// reply is flipped in flight. Corruption is silent: the reply
	// succeeds and the wrong bit is only caught by protocol-level
	// verification (or never). In [0, 1).
	CorruptRate float64
	// Latency is the maximum uniform extra latency added to a
	// successful reply, in time units.
	Latency float64
	// RateBits, when positive, rate-limits the source with a token
	// bucket refilled at RateBits bits per time unit; a query needing
	// more tokens than the bucket holds fails with KindRateLimit.
	RateBits int
	// RateBurst is the bucket capacity in bits; 0 selects RateBits.
	RateBurst int
}

// Enabled reports whether the plan injects any fault at all.
func (p *FaultPlan) Enabled() bool {
	if p == nil {
		return false
	}
	return len(p.Outages) > 0 || p.FailRate > 0 || p.TimeoutRate > 0 ||
		p.CorruptRate > 0 || p.Latency > 0 || p.RateBits > 0
}

// Validate reports plan errors. Rates must leave retries a chance and
// outage windows must end (the source-tier finite-delay requirement).
func (p *FaultPlan) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v >= 1 {
			return fmt.Errorf("source: plan %s=%v outside [0, 1)", name, v)
		}
		return nil
	}
	if err := check("FailRate", p.FailRate); err != nil {
		return err
	}
	if err := check("TimeoutRate", p.TimeoutRate); err != nil {
		return err
	}
	if err := check("CorruptRate", p.CorruptRate); err != nil {
		return err
	}
	if p.Latency < 0 {
		return fmt.Errorf("source: plan Latency=%v negative", p.Latency)
	}
	if p.RateBits < 0 || p.RateBurst < 0 {
		return fmt.Errorf("source: plan rate limit negative")
	}
	for i, w := range p.Outages {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("source: outage %d window [%v, %v) invalid (must heal)", i, w.Start, w.End)
		}
	}
	return nil
}

// burst returns the effective bucket capacity.
func (p *FaultPlan) burst() float64 {
	if p.RateBurst > 0 {
		return float64(p.RateBurst)
	}
	return float64(p.RateBits)
}

// InOutage reports whether now falls inside a downtime window, and when
// that window heals.
func (p *FaultPlan) InOutage(now float64) (healAt float64, down bool) {
	for _, w := range p.Outages {
		if now >= w.Start && now < w.End {
			return w.End, true
		}
	}
	return 0, false
}

// Decision-kind tags keep the rolls of one query attempt mutually
// independent (same discipline as netrt's roll tags).
const (
	rollFail uint64 = iota + 1
	rollTimeout
	rollLatency
	rollCorrupt
	rollCorruptBit
	rollJitter
)

func (p *FaultPlan) roll(tag uint64, peer int, ordinal uint64, attempt int) float64 {
	return hashmix.MixUnit(uint64(p.Seed), tag,
		uint64(int64(peer)), ordinal, uint64(attempt))
}

// fails decides a transient refusal for this attempt.
func (p *FaultPlan) fails(peer int, ordinal uint64, attempt int) bool {
	return p.FailRate > 0 && p.roll(rollFail, peer, ordinal, attempt) < p.FailRate
}

// timesOut decides a lost reply for this attempt.
func (p *FaultPlan) timesOut(peer int, ordinal uint64, attempt int) bool {
	return p.TimeoutRate > 0 && p.roll(rollTimeout, peer, ordinal, attempt) < p.TimeoutRate
}

// extraLatency returns the reply's injected latency.
func (p *FaultPlan) extraLatency(peer int, ordinal uint64, attempt int) float64 {
	if p.Latency <= 0 {
		return 0
	}
	return p.roll(rollLatency, peer, ordinal, attempt) * p.Latency
}

// corruptBit decides whether this reply is corrupted and which of its
// nbits bits flips.
func (p *FaultPlan) corruptBit(peer int, ordinal uint64, attempt, nbits int) (int, bool) {
	if p.CorruptRate <= 0 || nbits <= 0 {
		return 0, false
	}
	if p.roll(rollCorrupt, peer, ordinal, attempt) >= p.CorruptRate {
		return 0, false
	}
	h := hashmix.Mix64(uint64(p.Seed), rollCorruptBit,
		uint64(int64(peer)), ordinal, uint64(attempt))
	return int(h % uint64(nbits)), true
}

// String renders the plan in ParsePlan's grammar (canonical form).
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("fail", p.FailRate)
	add("timeout", p.TimeoutRate)
	add("corrupt", p.CorruptRate)
	add("latency", p.Latency)
	for _, w := range p.Outages {
		parts = append(parts, fmt.Sprintf("outage=%s..%s",
			strconv.FormatFloat(w.Start, 'g', -1, 64),
			strconv.FormatFloat(w.End, 'g', -1, 64)))
	}
	if p.RateBits > 0 {
		if p.RateBurst > 0 && p.RateBurst != p.RateBits {
			parts = append(parts, fmt.Sprintf("rate=%d/%d", p.RateBits, p.RateBurst))
		} else {
			parts = append(parts, fmt.Sprintf("rate=%d", p.RateBits))
		}
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the -source-faults plan grammar of drsim, drconform,
// drshrink and drstorm: comma-separated key=value fields.
//
//	fail=0.25          per-attempt transient failure probability
//	timeout=0.1        per-attempt lost-reply probability
//	corrupt=0.01       per-reply bit-flip probability
//	latency=0.5        max extra reply latency (time units)
//	outage=2..5        downtime window [2, 5); repeatable
//	rate=64            token bucket: 64 bits/unit, burst 64
//	rate=64/256        token bucket: 64 bits/unit, burst 256
//	seed=7             fault landscape selector
//
// Every key except outage may appear at most once: a duplicated scalar
// key is a plan bug (the second value would silently win), so it is
// rejected rather than last-writer-wins.
//
// Time-valued fields are virtual units in des/dst and seconds in netrt.
// The empty string parses to nil (no plan).
func ParsePlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	seen := make(map[string]bool)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("source: plan field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key != "outage" {
			if seen[key] {
				return nil, fmt.Errorf("source: plan field %q duplicated", key)
			}
			seen[key] = true
		}
		switch key {
		case "fail", "timeout", "corrupt", "latency":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("source: plan %s=%q: %v", key, val, err)
			}
			switch key {
			case "fail":
				p.FailRate = f
			case "timeout":
				p.TimeoutRate = f
			case "corrupt":
				p.CorruptRate = f
			case "latency":
				p.Latency = f
			}
		case "outage":
			lo, hi, ok := strings.Cut(val, "..")
			if !ok {
				return nil, fmt.Errorf("source: plan outage=%q wants start..end", val)
			}
			start, err1 := strconv.ParseFloat(lo, 64)
			end, err2 := strconv.ParseFloat(hi, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("source: plan outage=%q: bad bounds", val)
			}
			p.Outages = append(p.Outages, Window{Start: start, End: end})
		case "rate":
			bits, burst, hasBurst := strings.Cut(val, "/")
			b, err := strconv.Atoi(bits)
			if err != nil {
				return nil, fmt.Errorf("source: plan rate=%q: %v", val, err)
			}
			p.RateBits = b
			if hasBurst {
				bb, err := strconv.Atoi(burst)
				if err != nil {
					return nil, fmt.Errorf("source: plan rate=%q: %v", val, err)
				}
				p.RateBurst = bb
			}
		case "seed":
			sd, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("source: plan seed=%q: %v", val, err)
			}
			p.Seed = sd
		default:
			return nil, fmt.Errorf("source: unknown plan field %q", key)
		}
	}
	sort.Slice(p.Outages, func(i, j int) bool { return p.Outages[i].Start < p.Outages[j].Start })
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
