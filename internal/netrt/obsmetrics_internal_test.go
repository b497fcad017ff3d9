package netrt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocols/crash1"
	"repro/internal/sim"
)

// TestNetMetricsDisabledAllocFree pins the zero-cost-when-disabled
// contract on the TCP runtime's per-frame hooks: a run without metrics or
// an observer carries a nil *netMetrics and a nil *events, and every
// method the send/receive/chaos paths call through them must be an
// allocation-free no-op. A regression here would add allocations to
// every frame of every netrt run.
func TestNetMetricsDisabledAllocFree(t *testing.T) {
	var m *netMetrics
	var ev *events
	msg := &crash1.WhoIsMissing{}
	allocs := testing.AllocsPerRun(1000, func() {
		m.frame(sideHub, dirTx, kMsg, 64)
		m.frame(sideHub, dirRx, kQuery, 16)
		m.frame(sideClient, dirTx, kDone, 8)
		m.frame(sideClient, dirRx, kQReply, 32)
		m.dupDropped(0)
		m.malformedDropped(0)
		m.planDrop(2)
		m.planDupe(2)
		m.backoffObserve(5 * time.Millisecond)
		ev.peer(sim.KindQuery, 1, "", 128)
		ev.msg(sim.KindSend, 1, 2, msg, "*crash1.WhoIsMissing", msg.SizeBits())
		ev.emit(sim.KindPhase, sim.ObservedEvent{Peer: 1, Other: -1, Name: "download"})
	})
	if allocs != 0 {
		t.Fatalf("disabled netMetrics/events allocated %.2f times per op, want 0", allocs)
	}
}

// TestNetMetricsTimelineOnly: a timeline-only config builds no metrics
// bundle, and its timeline is a view of the event stream that keeps the
// lifecycle kinds only.
func TestNetMetricsTimelineOnly(t *testing.T) {
	cfg := &Config{N: 3, Timeline: obs.NewTimeline()}
	if m := newNetMetrics(cfg); m != nil {
		t.Fatal("timeline-only config built a metrics bundle")
	}
	ev := newEvents(cfg, time.Now())
	if ev == nil {
		t.Fatal("timeline-only config built no event stream")
	}
	ev.peer(sim.KindReconnect, 2, "", 0)
	ev.peer(sim.KindQuery, 1, "", 32)
	ev.msg(sim.KindSend, 1, 2, &crash1.WhoIsMissing{}, "*crash1.WhoIsMissing", 0)
	ev.emit(sim.KindPhase, sim.ObservedEvent{Peer: 0, Other: -1, Name: "x"})
	got := cfg.Timeline.Events()
	if len(got) != 2 || got[0].Kind != "reconnect" || got[1].Kind != "phase" || got[1].Name != "x" {
		t.Fatalf("timeline holds %+v, want the reconnect and the phase mark", got)
	}
}

// TestNetMetricsCountEveryKind: every frame kind kindName names has its
// frame and byte counters on both sides and in both directions, so no
// frame the runtime sends is missing from dr_net_frames_total or
// dr_net_frame_bytes_total.
func TestNetMetricsCountEveryKind(t *testing.T) {
	reg := obs.New()
	m := newNetMetrics(&Config{N: 2, Metrics: reg})
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

// EventKinds is the event kinds a run of cfg builds.
func EventKinds(cfg Config) sim.KindSet {
	if ev := newEvents(&cfg, time.Now()); ev != nil {
		return ev.kinds
	}
	return 0
}
