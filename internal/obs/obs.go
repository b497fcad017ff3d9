// Package obs is a lightweight, dependency-free observability layer for
// the Download runtimes: a metrics registry (counters, gauges, and
// histograms, with optional labels), a span/event timeline keyed to
// virtual time (des) or wall time (netrt), and exporters — Prometheus
// text format, a JSON snapshot, expvar, and an HTTP server bundling
// /metrics, /debug/vars, and net/http/pprof (see http.go).
//
// The layer is built to be provably zero-cost when disabled. Every
// constructor and accessor is nil-safe: a nil *Registry yields nil vecs,
// a nil vec yields nil instrument handles, and every method on a nil
// handle is a no-op that never allocates. Hot paths therefore resolve
// their handles once at setup and call them unconditionally; with
// observability off the calls reduce to a nil receiver check. This
// contract is pinned by AllocsPerRun budgets here and in internal/des
// and internal/netrt, so the simulator's allocation wins cannot silently
// regress.
//
// Metric naming follows Prometheus conventions: dr_<subsystem>_<what>
// with a _total suffix on counters and base-unit histograms (seconds).
// See docs/OBSERVABILITY.md for the full series catalog.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, as exported in Prometheus TYPE lines and JSON snapshots.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry holds named metric families. All methods are safe for
// concurrent use, and all are no-ops on a nil receiver — a nil *Registry
// IS the disabled observability configuration.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{fams: make(map[string]*family)} }

// family is one named metric with a fixed type and label schema; series
// are its children, one per label-value combination.
type family struct {
	name, help string
	typ        string
	labels     []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // label key → *Counter | *Gauge | *Histogram
}

// labelSep joins label values into a map key; \xff never appears in
// sane label values and escaping handles display.
const labelSep = "\xff"

// getFamily fetches or creates a family, enforcing schema consistency: a
// name registered twice must agree on type and labels (re-registration
// is how repeated runs share series, e.g. the storms of a drstorm soak).
func (r *Registry) getFamily(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
	}
	r.fams[name] = f
	return f
}

func (f *family) key(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// child fetches or creates the series for a label-value combination.
func (f *family) child(values []string, mk func() any) any {
	k := f.key(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[k]; ok {
		return c
	}
	c := mk()
	f.children[k] = c
	return c
}

// --- counters ----------------------------------------------------------

// Counter is a monotonically increasing integer metric. All methods are
// no-ops on a nil receiver and never allocate.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored so a
// counter can never decrease).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family. Returns
// nil on a nil registry.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.getFamily(name, help, TypeCounter, labels, nil)}
}

// Counter registers (or fetches) an unlabeled counter. Returns nil on a
// nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// With returns the series for the given label values, creating it on
// first use. Returns nil on a nil vec.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// --- gauges ------------------------------------------------------------

// Gauge is an integer metric that can go up and down. All methods are
// no-ops on a nil receiver and never allocate.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add applies a delta (may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family. Returns nil on
// a nil registry.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.getFamily(name, help, TypeGauge, labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// With returns the series for the given label values. Returns nil on a
// nil vec.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// --- histograms --------------------------------------------------------

// Histogram accumulates float64 observations into fixed buckets. Observe
// is a no-op on a nil receiver and never allocates.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family with
// the given bucket upper bounds (ascending; +Inf is implicit). Returns
// nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r.getFamily(name, help, TypeHistogram, labels, buckets)}
}

// Histogram registers (or fetches) an unlabeled histogram. Returns nil
// on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// With returns the series for the given label values. Returns nil on a
// nil vec.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return f.child(values, func() any {
		return &Histogram{
			bounds: f.buckets,
			counts: make([]uint64, len(f.buckets)+1),
		}
	}).(*Histogram)
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor (the common shape for latency and depth
// histograms).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
