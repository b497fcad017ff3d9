package netrt_test

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestChaosMetrics runs crashk under a lossy fault plan with a registry
// and timeline attached and checks that the chaos-layer counters agree
// with the Result's robustness accounting: per-peer query bits and
// messages, plan drops/dups, dedup discards, reconnects and query
// retries, plus frame counters and phase marks. No corpus case runs a
// transport fault plan, so this is where Q and M are checked under
// retransmits, dedup, reconnects and query retries.
func TestChaosMetrics(t *testing.T) {
	reg := obs.New()
	tl := obs.NewTimeline()
	res, err := netrt.Runner(netrt.Net{
		Faults: &netrt.FaultPlan{
			Seed: 11, Drop: 0.15, Dup: 0.15,
			Delay: 2 * time.Millisecond, Reorder: 0.1,
		},
		Resilience: netrt.Resilience{
			QueryTimeout:  250 * time.Millisecond,
			RTO:           60 * time.Millisecond,
			ReconnectBase: 10 * time.Millisecond,
		},
	})(&sim.Spec{
		Config:   sim.Config{N: 5, T: 0, L: 256, MsgBits: 64, Seed: 2},
		NewPeer:  crashk.New,
		Deadline: 30,
		Observer: sim.TimelineObserver(tl),
		Metrics:  reg,
		Label:    "crashk",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect run: %v", res.Failures)
	}
	snap := reg.Snapshot()

	sumOver := func(name string) (total int, found bool) {
		for _, m := range snap.Metrics {
			if m.Name != name {
				continue
			}
			found = true
			for _, s := range m.Series {
				total += int(s.Value)
			}
		}
		return total, found
	}

	var wantBits, wantMsgs, wantDrop, wantDup, wantDedup, wantRetries, wantRecon int
	for _, ps := range res.PerPeer {
		wantBits += ps.QueryBits
		wantMsgs += ps.MsgsSent
		wantDrop += ps.PlanDropped
		wantDup += ps.PlanDuped
		wantDedup += ps.DupFramesDropped
		wantRetries += ps.QueryRetries
		wantRecon += ps.Reconnects
	}
	checks := []struct {
		name string
		want int
	}{
		{"dr_net_query_bits_total", wantBits},
		{"dr_net_msgs_sent_total", wantMsgs},
		{"dr_net_plan_dropped_total", wantDrop},
		{"dr_net_plan_duped_total", wantDup},
		{"dr_net_dup_frames_dropped_total", wantDedup},
		{"dr_net_query_retries_total", wantRetries},
		{"dr_net_reconnects_total", wantRecon},
	}
	for _, c := range checks {
		got, found := sumOver(c.name)
		if !found {
			t.Errorf("metric %s missing from snapshot", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s: metric total %d, result says %d", c.name, got, c.want)
		}
	}

	// Per-peer series carry the protocol label.
	for _, ps := range res.PerPeer {
		labels := map[string]string{"protocol": "crashk", "peer": strconv.Itoa(int(ps.ID))}
		if s, _ := snap.Series("dr_net_query_bits_total", labels); int(s.Value) != ps.QueryBits {
			t.Errorf("peer %d: query-bit series %v, stats say %d", ps.ID, s.Value, ps.QueryBits)
		}
		if s, _ := snap.Series("dr_net_msgs_sent_total", labels); int(s.Value) != ps.MsgsSent {
			t.Errorf("peer %d: msgs series %v, stats say %d", ps.ID, s.Value, ps.MsgsSent)
		}
	}

	// The lossy plan forces retransmissions: MSG frames must flow on both
	// sides, and QUERY frames must be at least the served query calls.
	for _, labels := range []map[string]string{
		{"side": "hub", "dir": "tx", "kind": "MSG"},
		{"side": "client", "dir": "rx", "kind": "MSG"},
		{"side": "hub", "dir": "rx", "kind": "QUERY"},
		{"side": "client", "dir": "tx", "kind": "DONE"},
	} {
		if s, ok := snap.Series("dr_net_frames_total", labels); !ok || s.Value <= 0 {
			t.Errorf("frame series %v: value %v (ok=%v), want > 0", labels, s.Value, ok)
		}
	}

	// Timeline: every peer marked phases and a terminate.
	kinds := map[string]int{}
	for _, ev := range tl.Events() {
		kinds[ev.Kind]++
	}
	if kinds["phase"] == 0 {
		t.Error("timeline has no phase marks")
	}
	if kinds["terminate"] != 5 {
		t.Errorf("timeline has %d terminate marks, want 5", kinds["terminate"])
	}
}

// kindCounter counts the events of each kind it receives; it reads only
// the kinds it declares. Callbacks come one at a time, so it needs no lock.
type kindCounter struct {
	kinds sim.KindSet
	count map[string]int
}

func (c *kindCounter) Kinds() sim.KindSet            { return c.kinds }
func (c *kindCounter) OnEvent(ev *sim.ObservedEvent) { c.count[ev.Kind]++ }

// TestObserverReadsDeclaredKinds: over sockets too, an observer that names
// its kinds gets those kinds and no other, all of them: no client builds a
// send or deliver event for it, while every start, query, crash and
// termination still arrives.
func TestObserverReadsDeclaredKinds(t *testing.T) {
	c := &kindCounter{kinds: sim.KindStart | sim.KindQuery | sim.KindCrash | sim.KindTerminate, count: map[string]int{}}
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 6, T: 2, L: 1024, MsgBits: 128, Seed: 4},
		NewPeer:  crashk.NewFast,
		Faults:   sim.Faults{Fates: []sim.Fate{{Peer: 1, CrashAfter: 0, Downtime: -1}, {Peer: 4, CrashAfter: 3, Downtime: -1}}},
		Observer: c,
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Msgs == 0 {
		t.Fatalf("want a correct run that sends messages: %v", res)
	}
	terms := 0
	for _, ps := range res.PerPeer {
		if ps.Terminated {
			terms++
		}
	}
	want := map[string]int{"start": 5, "crash": 2, "terminate": terms}
	for kind, n := range c.count {
		if kind != "query" && n != want[kind] {
			t.Errorf("%d %q events, want %d", n, kind, want[kind])
		}
	}
	if c.count["query"] == 0 || c.count["send"] != 0 || c.count["deliver"] != 0 {
		t.Errorf("event counts %v: want queries and no send or deliver", c.count)
	}

	// A registry and no Observer: the clients build exactly the kinds the
	// metrics fold reads, and no deliver, qreply or phase event.
	fold := sim.KindsOf(sim.MetricsObserver(obs.New(), "dr_net", "", 128))
	got := netrt.EventKinds(&sim.Spec{Config: sim.Config{N: 6, T: 2, L: 1024, MsgBits: 128}, NewPeer: crashk.NewFast, Metrics: obs.New()})
	if got != fold || got&(sim.KindDeliver|sim.KindQReply|sim.KindPhase) != 0 {
		t.Errorf("with a registry the clients build kinds %b, want the fold's %b", got, fold)
	}
}
