package des_test

import (
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestMetricsMatchResult runs crashk with a registry and a timeline view
// of its event stream attached and checks that the metric series agree with the Result's own
// accounting: per-peer query bits, the event counter, crash and
// termination totals, and per-peer phase spans on the timeline.
func TestMetricsMatchResult(t *testing.T) {
	reg := obs.New()
	tl := obs.NewTimeline()
	faulty := adversary.SpreadFaulty(8, 2)
	spec := &sim.Spec{
		Config:   sim.Config{N: 8, T: 2, L: 1024, MsgBits: 128, Seed: 7},
		NewPeer:  crashk.New,
		Delays:   adversary.NewRandomUnit(7),
		Faults:   sim.Faults{Fates: adversary.NewCrashRandom(7, faulty, 120)},
		Metrics:  reg,
		Observer: sim.TimelineObserver(tl),
		Label:    "crashk",
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect run: %v", res.Failures)
	}
	snap := reg.Snapshot()

	for _, ps := range res.PerPeer {
		labels := map[string]string{"protocol": "crashk", "peer": strconv.Itoa(int(ps.ID))}
		if ps.QueryBits > 0 {
			s, ok := snap.Series("dr_sim_query_bits_total", labels)
			if !ok || int(s.Value) != ps.QueryBits {
				t.Errorf("peer %d: metric query bits %v (ok=%v), stats say %d", ps.ID, s.Value, ok, ps.QueryBits)
			}
		}
		if ps.MsgsSent > 0 {
			s, ok := snap.Series("dr_sim_msgs_sent_total", labels)
			if !ok || int(s.Value) != ps.MsgsSent {
				t.Errorf("peer %d: metric msgs %v (ok=%v), stats say %d", ps.ID, s.Value, ok, ps.MsgsSent)
			}
		}
	}

	if s, ok := snap.Series("dr_sim_events_total", nil); !ok || int(s.Value) != res.Events {
		t.Errorf("event counter %v (ok=%v), result says %d", s.Value, ok, res.Events)
	}
	crashed := 0
	terms := 0
	for _, ps := range res.PerPeer {
		if ps.Crashed {
			crashed++
		}
		if ps.Terminated {
			terms++
		}
	}
	if s, ok := snap.Series("dr_sim_crashes_total", nil); crashed > 0 && (!ok || int(s.Value) != crashed) {
		t.Errorf("crash counter %v (ok=%v), result says %d", s.Value, ok, crashed)
	}
	if s, ok := snap.Series("dr_sim_terminations_total", nil); !ok || int(s.Value) != terms {
		t.Errorf("termination counter %v (ok=%v), result says %d", s.Value, ok, terms)
	}
	// The histogram times delivered events only: a dispatch consumed by a
	// crash increments the event counter but delivers nothing.
	if s, ok := snap.Series("dr_sim_dispatch_seconds", nil); !ok ||
		int(s.Count) > res.Events || int(s.Count) < res.Events-crashed {
		t.Errorf("dispatch histogram count %d (ok=%v), want within [%d, %d]",
			s.Count, ok, res.Events-crashed, res.Events)
	}

	// Every honest terminated peer marked at least phase1 and its spans
	// close at a finite time.
	spans := tl.Spans()
	perPeer := map[int]int{}
	for _, sp := range spans {
		perPeer[sp.Peer]++
		if sp.End < sp.Start {
			t.Errorf("span %+v ends before it starts", sp)
		}
	}
	for _, ps := range res.PerPeer {
		if ps.Honest && ps.Terminated && perPeer[int(ps.ID)] == 0 {
			t.Errorf("honest peer %d has no phase spans", ps.ID)
		}
	}
}

// TestMetricsSharedAcrossRuns: one registry accumulates across runs with
// different labels (the sweep use case) without panicking or mixing
// series.
func TestMetricsSharedAcrossRuns(t *testing.T) {
	reg := obs.New()
	for _, label := range []string{"a", "b"} {
		spec := &sim.Spec{
			Config:  sim.Config{N: 4, T: 0, L: 256, MsgBits: 64, Seed: 3},
			NewPeer: crashk.New,
			Delays:  adversary.NewRandomUnit(3),
			Metrics: reg,
			Label:   label,
		}
		if _, err := des.New().Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, label := range []string{"a", "b"} {
		if _, ok := snap.Series("dr_sim_query_bits_total", map[string]string{"protocol": label, "peer": "0"}); !ok {
			t.Errorf("missing series for label %q", label)
		}
	}
}

// kindCounter counts the events of each kind it receives; it reads only
// the kinds it declares.
type kindCounter struct {
	kinds sim.KindSet
	count map[string]int
}

func (c *kindCounter) Kinds() sim.KindSet           { return c.kinds }
func (c *kindCounter) OnEvent(ev sim.ObservedEvent) { c.count[ev.Kind]++ }

// TestObserverReadsDeclaredKinds: an observer that names its kinds gets
// those kinds and no other, all of them: no send or deliver is built for
// it, while every start, query, crash and termination still arrives.
func TestObserverReadsDeclaredKinds(t *testing.T) {
	c := &kindCounter{kinds: sim.KindStart | sim.KindQuery | sim.KindCrash | sim.KindTerminate, count: map[string]int{}}
	res, err := des.New().Run(&sim.Spec{
		Config:   sim.Config{N: 8, T: 2, L: 1024, MsgBits: 128, Seed: 7},
		NewPeer:  crashk.New,
		Delays:   adversary.NewRandomUnit(7),
		Faults:   sim.Faults{Fates: adversary.NewCrashRandom(7, adversary.SpreadFaulty(8, 2), 120)},
		Observer: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Msgs == 0 {
		t.Fatal("the run sent no message")
	}
	crashed, terms := 0, 0
	for _, ps := range res.PerPeer {
		if ps.Crashed {
			crashed++
		}
		if ps.Terminated {
			terms++
		}
	}
	want := map[string]int{"start": 8, "crash": crashed, "terminate": terms}
	for kind, n := range c.count {
		if kind == "query" {
			continue
		}
		if n != want[kind] {
			t.Errorf("%d %q events, want %d", n, kind, want[kind])
		}
	}
	if c.count["query"] == 0 || c.count["start"] != 8 || c.count["send"] != 0 || c.count["deliver"] != 0 {
		t.Errorf("event counts %v: want queries, 8 starts and no send or deliver", c.count)
	}
}
