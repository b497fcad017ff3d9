package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runWithObserver(t *testing.T, obs sim.Observer, factory func(sim.PeerID) sim.Peer, n, tf, L int) *sim.Result {
	t.Helper()
	var faults sim.Faults
	if tf > 0 {
		faulty := adversary.SpreadFaulty(n, tf)
		faults = sim.Faults{Fates: adversary.NewCrashRandom(3, faulty, 40)}
	}
	res, err := des.New().Run(&sim.Spec{
		Config:   sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: 3},
		NewPeer:  factory,
		Delays:   adversary.NewRandomUnit(3),
		Faults:   faults,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	return res
}

func TestMemoryObserverMatchesResult(t *testing.T) {
	mem := &trace.Memory{}
	res := runWithObserver(t, mem, crashk.New, 6, 2, 512)
	s := trace.Analyze(mem.Events)

	// Every honest peer's observed query bits must equal its stats.
	for _, ps := range res.PerPeer {
		obs := s.PerPeer[ps.ID]
		if obs == nil {
			t.Fatalf("peer %d missing from trace", ps.ID)
		}
		if obs.QueryBits != ps.QueryBits {
			t.Errorf("peer %d: traced query bits %d != stats %d", ps.ID, obs.QueryBits, ps.QueryBits)
		}
		if ps.Terminated != obs.Terminated {
			t.Errorf("peer %d: terminated mismatch", ps.ID)
		}
		if ps.Crashed != obs.Crashed {
			t.Errorf("peer %d: crashed mismatch", ps.ID)
		}
	}
	if s.ByKind["start"] != 6 {
		t.Errorf("starts = %d, want 6", s.ByKind["start"])
	}
	if s.ByKind["send"] == 0 || s.ByKind["deliver"] == 0 {
		t.Error("no traffic traced")
	}
	if s.ByKind["deliver"] > s.ByKind["send"] {
		t.Errorf("more deliveries (%d) than sends (%d)", s.ByKind["deliver"], s.ByKind["send"])
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	runWithObserver(t, rec, naive.New, 4, 0, 128)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rec.Events() {
		t.Fatalf("read %d events, recorded %d", len(events), rec.Events())
	}
	s := trace.Analyze(events)
	// Naive: 4 starts, 4 queries of 128 bits, 4 qreplies, 4 terminates,
	// no sends.
	if s.ByKind["query"] != 4 || s.ByKind["send"] != 0 || s.ByKind["terminate"] != 4 {
		t.Errorf("unexpected kinds: %v", s.ByKind)
	}
	for _, ps := range s.PerPeer {
		if ps.QueryBits != 128 {
			t.Errorf("query bits = %d, want 128", ps.QueryBits)
		}
	}
	var out strings.Builder
	s.Fprint(&out)
	if !strings.Contains(out.String(), "query") {
		t.Errorf("summary missing kinds: %q", out.String())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage accepted")
	}
	events, err := trace.Read(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty trace: %v, %d events", err, len(events))
	}
}

func TestMessageTypeHistogram(t *testing.T) {
	mem := &trace.Memory{}
	runWithObserver(t, mem, crashk.New, 8, 4, 1024)
	s := trace.Analyze(mem.Events)
	// crashk must have sent stage-1 requests and responses plus Fulls.
	found := map[string]bool{}
	for mt := range s.ByMsgType {
		if strings.Contains(mt, "Req1") {
			found["req1"] = true
		}
		if strings.Contains(mt, "Resp1") {
			found["resp1"] = true
		}
		if strings.Contains(mt, "Full") {
			found["full"] = true
		}
	}
	for _, k := range []string{"req1", "resp1", "full"} {
		if !found[k] {
			t.Errorf("message type %s missing from histogram: %v", k, s.ByMsgType)
		}
	}
}

// TestTimeline pins drtrace -timeline's rendering, trace.Lanes.
func TestTimeline(t *testing.T) {
	mem := &trace.Memory{}
	runWithObserver(t, mem, crashk.New, 6, 2, 512)
	out := trace.Lanes(mem.Events, 60)
	for _, want := range []string{"legend:", "T", "S"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// One lane per peer plus header and legend.
	if lines := strings.Count(out, "\n"); lines != 6+2 {
		t.Errorf("timeline has %d lines:\n%s", lines, out)
	}
	if got := trace.Lanes(nil, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty timeline = %q", got)
	}
}
