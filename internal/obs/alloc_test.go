package obs

import "testing"

// The zero-cost-when-disabled contract: every method a runtime hot path
// calls through a nil handle must be allocation-free. internal/des and
// internal/netrt call these unconditionally per event/frame, so a single
// allocation here would multiply into thousands per run and blow the
// simulator's pinned allocation budgets.

func TestNilHandlesAllocFree(t *testing.T) {
	var (
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
		tl *Timeline
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(42)
		g.Set(7)
		g.Add(-1)
		h.Observe(0.5)
		tl.Mark(1.0, 3, "phase", "download")
	})
	if allocs != 0 {
		t.Fatalf("nil instrument handles allocated %.2f times per op, want 0", allocs)
	}
	// Resolution through a nil registry stays nil at every level (the
	// runtimes additionally guard setup behind a single nil check, so
	// this path never runs per-event anyway).
	if r.CounterVec("dr_x_total", "h", "peer").With("0") != nil {
		t.Fatal("nil registry produced a live counter")
	}
	if r.HistogramVec("dr_z_seconds", "h", nil).With() != nil {
		t.Fatal("nil registry produced a live histogram")
	}
}

// Enabled counters must stay allocation-free per increment (one atomic
// add); only series creation may allocate.
func TestEnabledCounterAddAllocFree(t *testing.T) {
	r := New()
	c := r.CounterVec("dr_hot_total", "h", "peer").With("0")
	allocs := testing.AllocsPerRun(1000, func() { c.Add(3) })
	if allocs != 0 {
		t.Fatalf("enabled Counter.Add allocated %.2f times per op, want 0", allocs)
	}
}

// The source-tier instruments (dr_source_*, dr_mirror_*) ride the same
// nil-handle contract: a run without -obs resolves them all through a nil
// registry, and every update of them must stay allocation-free.
func TestDisabledSourceMetricsAllocFree(t *testing.T) {
	var r *Registry
	fails := r.CounterVec("dr_source_failures_total",
		"Source query attempts that failed, by failure kind.", "protocol", "kind")
	retries := r.CounterVec("dr_source_retries_total",
		"Source query attempts re-issued after a failure.", "protocol").With("naive")
	opens := r.CounterVec("dr_source_breaker_opens_total",
		"Circuit-breaker open transitions.", "protocol").With("naive")
	deferred := r.CounterVec("dr_source_deferred_total",
		"Queries parked while a breaker was open.", "protocol").With("naive")
	hits := r.CounterVec("dr_mirror_hits_total",
		"Queries answered by a verified mirror reply.", "protocol").With("naive")
	var tl *Timeline
	allocs := testing.AllocsPerRun(1000, func() {
		fails.With("naive", "outage").Add(1)
		fails.With("naive", "timeout").Add(1)
		retries.Add(1)
		opens.Inc()
		deferred.Add(2)
		hits.Inc()
		tl.Mark(1.0, 0, "srcfail", "outage")
	})
	if allocs != 0 {
		t.Fatalf("disabled source-metrics path allocated %.2f times per op, want 0", allocs)
	}
}
