package netrt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTimelineForTest() *obs.Timeline { return obs.NewTimeline() }

// TestNetMetricsDisabledAllocFree pins the zero-cost-when-disabled
// contract on the TCP runtime's per-frame hooks: a run without metrics
// carries a nil *netMetrics, and every method the send/receive/chaos
// paths call through it must be an allocation-free no-op. A regression
// here would add allocations to every frame of every netrt run.
func TestNetMetricsDisabledAllocFree(t *testing.T) {
	var m *netMetrics
	allocs := testing.AllocsPerRun(1000, func() {
		m.frame(sideHub, dirTx, kMsg, 64)
		m.frame(sideHub, dirRx, kQuery, 16)
		m.frame(sideClient, dirTx, kDone, 8)
		m.frame(sideClient, dirRx, kQReply, 32)
		m.queryCharged(3, 128)
		m.msgRouted(2, 1, 512)
		m.reconnect(1)
		m.queryRetry(4)
		m.dupDropped(0)
		m.planDrop(2)
		m.planDupe(2)
		m.backoffObserve(5 * time.Millisecond)
		m.mark(1, "phase", "download")
	})
	if allocs != 0 {
		t.Fatalf("disabled netMetrics allocated %.2f times per op, want 0", allocs)
	}
}

// TestNetMetricsTimelineOnly: attaching only a timeline must not panic
// on the counter paths (the per-peer handle slices stay nil).
func TestNetMetricsTimelineOnly(t *testing.T) {
	cfg := &Config{N: 3}
	cfg.Timeline = newTimelineForTest()
	m := newNetMetrics(cfg, time.Now())
	if m == nil {
		t.Fatal("timeline-only config produced a nil bundle")
	}
	m.frame(sideHub, dirTx, kMsg, 10)
	m.queryCharged(1, 32)
	m.reconnect(2)
	m.mark(0, "phase", "x")
	if cfg.Timeline.Len() != 2 { // reconnect mark + phase mark
		t.Fatalf("timeline has %d events, want 2", cfg.Timeline.Len())
	}
}

// TestNetMetricsCountEveryKind: every frame kind kindName names has its
// frame and byte counters on both sides and in both directions, so no
// frame the runtime sends is missing from dr_net_frames_total or
// dr_net_frame_bytes_total.
func TestNetMetricsCountEveryKind(t *testing.T) {
	reg := obs.New()
	m := newNetMetrics(&Config{N: 2, Metrics: reg}, time.Now())
	var kinds []byte
	for k := 0; k < 256; k++ {
		if !strings.HasPrefix(kindName(byte(k)), "kind(") {
			kinds = append(kinds, byte(k))
		}
	}
	if len(kinds) != int(kLast) {
		t.Fatalf("kindName names %d kinds, want kHello..kLast (%d)", len(kinds), kLast)
	}
	for _, k := range kinds {
		m.frame(sideHub, dirTx, k, 10)
		m.frame(sideHub, dirRx, k, 20)
		m.frame(sideClient, dirTx, k, 30)
		m.frame(sideClient, dirRx, k, 40)
	}
	snap := reg.Snapshot()
	for _, k := range kinds {
		for _, c := range []struct {
			side, dir string
			bytes     float64
		}{{"hub", "tx", 10}, {"hub", "rx", 20}, {"client", "tx", 30}, {"client", "rx", 40}} {
			labels := map[string]string{"side": c.side, "dir": c.dir, "kind": kindName(k)}
			frames, ok := snap.Series("dr_net_frames_total", labels)
			if !ok || frames.Value != 1 {
				t.Errorf("%v: %v frames counted (series present %v), want 1", labels, frames.Value, ok)
			}
			if b, ok := snap.Series("dr_net_frame_bytes_total", labels); !ok || b.Value != c.bytes {
				t.Errorf("%v: %v bytes counted (series present %v), want %v", labels, b.Value, ok, c.bytes)
			}
		}
	}
}
