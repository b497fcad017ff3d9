package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// setupReps is how often a pass sets the workload up before timing. Each
// repetition ends with one warm-up op, so a pass has three warm-ups; the
// reported set-up time is the median repetition, which drops the first,
// cold-heap one.
const setupReps = 3

// tracedShare is the part of -seconds the traced pass spends on ops; the
// rest of its time goes to the micro-rows.
const tracedShare = 0.5

// cost is what one call into the system used, measured from outside.
type cost struct {
	wall, cpu, gcPause  time.Duration
	allocBytes, mallocs uint64
	gcCycles            uint32
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set; Linux reports it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measure runs f, the call into the system, under a span and records its
// cost in c.cost. The harness is single-threaded, so process-wide deltas
// belong to f.
func (c *opCtx) measure(name string, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	end := c.tr.begin(name, c.id)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	end()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	c.cost = cost{wall: wall, cpu: cpu, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC}
}

// acc sums the units of one timed section.
type acc struct {
	units             int
	samples           []float64
	attempted, failed int
	payloadBits       float64
	busy              time.Duration
	cost              cost
	q                 float64
	out               outcome // field-wise sums; Time is summed too
	failures          []string
}

// maxFailuresKept bounds the failure messages a pass keeps; the count is
// exact regardless.
const maxFailuresKept = 20

func (a *acc) add(u *unit, c cost) {
	a.units++
	a.samples = append(a.samples, u.samples...)
	a.attempted += u.attempted
	a.failed += u.failed
	a.payloadBits += u.payloadBits
	a.busy += u.busy
	a.q += u.q
	a.cost.wall += c.wall
	a.cost.cpu += c.cpu
	a.cost.gcPause += c.gcPause
	a.cost.allocBytes += c.allocBytes
	a.cost.mallocs += c.mallocs
	a.cost.gcCycles += c.gcCycles
	o, s := &u.out, &a.out
	s.Msgs += o.Msgs
	s.MsgBits += o.MsgBits
	s.Events += o.Events
	s.Time += o.Time
	s.SourceFailures += o.SourceFailures
	s.SourceRetries += o.SourceRetries
	s.BreakerOpens += o.BreakerOpens
	s.Deferred += o.Deferred
	s.MirrorHits += o.MirrorHits
	s.ProofFailures += o.ProofFailures
	s.FallbackQueries += o.FallbackQueries
	s.Rejoins += o.Rejoins
	s.WarmHitBits += o.WarmHitBits
	s.CkptSaves += o.CkptSaves
	s.CkptRestores += o.CkptRestores
	for _, f := range u.failures {
		if len(a.failures) < maxFailuresKept {
			a.failures = append(a.failures, f)
		}
	}
}

// perUnit is a sum's mean over the units.
func (a *acc) perUnit(sum float64) float64 { return ratio(sum, float64(a.units)) }

// passConfig is what a pass takes from the command line.
type passConfig struct {
	seed    int64
	seconds float64
	outDir  string
	pins    map[int64]pin
}

// passResult is one workload's outcome in one pass.
type passResult struct {
	Workload       string                 `json:"workload"`
	Traced         bool                   `json:"traced"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	FailRatio      float64                `json:"fail_ratio"`
	Units          int                    `json:"units"`
	Samples        int                    `json:"samples"`
	TailPercentile int                    `json:"tail_percentile"`
	PinnedOps      int                    `json:"pinned_ops"`
	TimedSeconds   float64                `json:"timed_seconds"`
	Metrics        map[string]metricValue `json:"metrics"`
	Budget         []budgetRow            `json:"budget,omitempty"`
	TimelineEvents int                    `json:"timeline_events,omitempty"`
	Failures       []string               `json:"failures,omitempty"`

	values map[string]float64
}

// pass runs one workload once: set-up, then the timed section. Untraced,
// it yields the end-to-end metrics. Traced, it alternates plain and
// traced ops — so the two medians that make the tracing overhead see the
// same machine state — and then runs the layer probes.
type pass struct {
	w   *workload
	cfg passConfig
	tr  *tracer
	reg *obs.Registry
	tl  *obs.Timeline
	// scratch is where the units write files; removed when the pass ends.
	scratch string
	pinned  int
}

func runPass(w *workload, cfg passConfig, traced bool) (*passResult, error) {
	p := &pass{w: w, cfg: cfg}
	if traced {
		p.tr, p.reg, p.tl = newTracer(), obs.New(), obs.NewTimeline()
	}
	p.scratch = filepath.Join(cfg.outDir, "scratch-"+w.name)
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.scratch)

	var setups []float64
	var cold acc // warm-ups are checked like any op, never timed
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		end := p.tr.begin("setup", w.name)
		u, _ := p.unit("warmup", r, false, 0)
		end()
		setups = append(setups, time.Since(t0).Seconds())
		cold.add(&u, cost{})
	}

	seconds, minUnits := cfg.seconds, w.minUnits
	if traced {
		seconds *= tracedShare
		minUnits = min(minUnits, 10)
	}
	var plain, withTrace acc
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds || i < minUnits; i++ {
		tracedOp := traced && i%2 == 1
		u, c := p.unit("op", i, tracedOp, 0)
		if tracedOp {
			withTrace.add(&u, c)
		} else {
			plain.add(&u, c)
		}
	}
	timed := time.Since(start).Seconds()

	res := &passResult{Workload: w.name, Traced: traced,
		Attempted: cold.attempted + plain.attempted + withTrace.attempted,
		Failed:    cold.failed + plain.failed + withTrace.failed,
		Units:     plain.units + withTrace.units, Samples: len(plain.samples) + len(withTrace.samples),
		TailPercentile: tailPercentile(w.minSamples), PinnedOps: p.pinned, TimedSeconds: timed,
		Failures: append(append(cold.failures, plain.failures...), withTrace.failures...)}
	res.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
	if !traced {
		res.values = endToEndMetrics(w, &plain, setups)
		res.Metrics = withUnits(endToEnd, res.values)
		return res, nil
	}
	probes := runProbes(p, &plain)
	res.values, res.Budget = layerMetrics(w, &plain, &withTrace, p.reg.Snapshot(), probes)
	res.Metrics = withUnits(perLayer, res.values)
	res.TimelineEvents = p.tl.Len()
	if err := p.tr.writeJSONL(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// unit runs one op of the workload. purpose and i select its seed, so
// warm-ups and timed ops never share one.
func (p *pass) unit(purpose string, i int, tracedOp bool, workers int) (unit, cost) {
	seed := deriveSeed(p.cfg.seed, p.w.name, purpose, i)
	c := &opCtx{w: p.w, opSeed: seed, id: fmt.Sprintf("%s/%d", p.w.name, seed), tr: p.tr,
		workers: workers, scratch: p.scratch, pins: p.cfg.pins}
	if tracedOp {
		c.reg, c.tl = p.reg, p.tl
	}
	if _, ok := p.cfg.pins[seed]; ok {
		p.pinned++
	}
	defer p.tr.begin("op", c.id)()
	u := p.w.op(c)
	return u, c.cost
}

// endToEndMetrics reduces an untraced timed section to the six numbers of
// metrics.go.
func endToEndMetrics(w *workload, a *acc, setups []float64) map[string]float64 {
	s := sortedCopy(a.samples)
	return map[string]float64{
		"op_p50_ms":                   percentile(s, 50),
		"op_tail_ms":                  percentile(s, float64(tailPercentile(w.minSamples))),
		"goodput_mbit_s":              ratio(a.payloadBits/1e6, a.busy.Seconds()),
		"alloc_bytes_per_payload_bit": ratio(float64(a.cost.allocBytes), a.payloadBits),
		"q_bits_per_peer":             a.perUnit(a.q),
		"setup_s":                     percentile(sortedCopy(setups), 50),
	}
}
