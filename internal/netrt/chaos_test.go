package netrt_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/netrt"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

// chaosPlan is the acceptance schedule: ≥10% drop, duplication, jitter
// with forced reordering, and one partition that heals mid-run.
func chaosPlan(seed int64) *netrt.FaultPlan {
	return &netrt.FaultPlan{
		Seed:    seed,
		Drop:    0.10,
		Dup:     0.15,
		Delay:   3 * time.Millisecond,
		Reorder: 0.10,
		Partitions: []netrt.Partition{{
			A:     []sim.PeerID{0, 1},
			B:     []sim.PeerID{2, 3},
			Start: 30 * time.Millisecond,
			Heal:  350 * time.Millisecond,
		}},
	}
}

// fastResilience tightens the retry clocks so chaos tests converge in
// test time rather than wall-clock-default time.
func fastResilience() netrt.Resilience {
	return netrt.Resilience{
		QueryTimeout:  250 * time.Millisecond,
		RTO:           60 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
	}
}

// TestChaosMatrix is the acceptance gate: naive, crashk and committee
// each complete correctly across three seeds under drop + duplication +
// a healed partition.
func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		spec sim.Spec
	}{
		{"naive", sim.Spec{Config: sim.Config{N: 5, T: 0, L: 256, MsgBits: 64}, NewPeer: naive.New}},
		{"crashk", sim.Spec{Config: sim.Config{N: 6, T: 2, L: 512, MsgBits: 128}, NewPeer: crashk.New,
			Faults: sim.Faults{Fates: sim.Crashes([]sim.PeerID{4}, 0)}}},
		{"committee", sim.Spec{Config: sim.Config{N: 9, T: 2, L: 270, MsgBits: 256}, NewPeer: committee.New}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			chaosEvents := 0
			for seed := int64(1); seed <= 3; seed++ {
				spec := tc.spec
				spec.Config.Seed = seed
				spec.Deadline = 30
				res, err := netrt.Runner(netrt.Net{Faults: chaosPlan(seed * 101), Resilience: fastResilience()})(&spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Correct {
					t.Fatalf("seed %d incorrect: %v", seed, res)
				}
				for i := range res.PerPeer {
					ps := &res.PerPeer[i]
					chaosEvents += ps.PlanDropped + ps.PlanDuped + ps.DupFramesDropped
				}
			}
			// Message-heavy protocols must actually have been hit by the
			// plan; naive sends no peer messages, so only its five query
			// replies are exposed and the count may legitimately be 0.
			if tc.name != "naive" && chaosEvents == 0 {
				t.Errorf("fault plan injected no observable events")
			}
		})
	}
}

// slowScanPeer downloads X one bit per query, pausing between queries so
// the run stays alive long enough for mid-run faults to land. Tag carries
// the index, so replies self-identify.
type slowScanPeer struct {
	ctx   sim.Context
	out   *bitarray.Array
	next  int
	pause time.Duration
}

func (p *slowScanPeer) Init(ctx sim.Context) {
	p.ctx = ctx
	p.out = bitarray.New(ctx.L())
	ctx.Query(0, []int{0})
}

func (p *slowScanPeer) OnMessage(sim.PeerID, sim.Message) {}

func (p *slowScanPeer) OnQueryReply(r sim.QueryReply) {
	if r.Tag != p.next || r.Bits.Len() != 1 {
		return
	}
	p.out.Set(p.next, r.Bits.Get(0))
	p.next++
	if p.next == p.ctx.L() {
		p.ctx.Output(p.out)
		p.ctx.Terminate()
		return
	}
	time.Sleep(p.pause)
	p.ctx.Query(p.next, []int{p.next})
}

// TestChaosFlapReconnect severs every peer's connection mid-run and
// expects the clients to redial, replay, and finish correctly.
func TestChaosFlapReconnect(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{
		Faults: &netrt.FaultPlan{
			Seed: 9,
			Flaps: map[sim.PeerID][]time.Duration{
				0: {100 * time.Millisecond},
				1: {100 * time.Millisecond},
				2: {100 * time.Millisecond},
			},
		},
		Resilience: netrt.Resilience{
			QueryTimeout:  100 * time.Millisecond,
			RTO:           50 * time.Millisecond,
			ReconnectBase: 5 * time.Millisecond,
		},
	})(&sim.Spec{
		Config: sim.Config{N: 3, T: 0, L: 24, MsgBits: 64, Seed: 5},
		NewPeer: func(sim.PeerID) sim.Peer {
			return &slowScanPeer{pause: 15 * time.Millisecond}
		},
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Reconnects < 3 {
		t.Errorf("Reconnects = %d, want ≥ 3 (every peer was flapped mid-run)", res.Reconnects)
	}
}

// TestChaosQueryRetry drops half of all deliveries, which the hub
// retransmits, and has the source lose half of its replies, which only
// the client's query deadline can recover (both decisions are pure
// functions of the plans' seeds): correctness must come from the retry
// path, visibly counted.
func TestChaosQueryRetry(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{
		Faults: &netrt.FaultPlan{Seed: 3, Drop: 0.5},
		Resilience: netrt.Resilience{
			QueryTimeout: 100 * time.Millisecond,
			RTO:          50 * time.Millisecond,
		},
	})(&sim.Spec{
		Config:       sim.Config{N: 6, T: 0, L: 128, MsgBits: 64, Seed: 11},
		NewPeer:      naive.New,
		SourceFaults: &source.FaultPlan{Seed: 4, TimeoutRate: 0.5},
		Deadline:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.QueryRetries == 0 {
		t.Errorf("QueryRetries = 0, want > 0 with half the source's replies lost")
	}
}

// neverPeer never terminates: it exists to exercise the deadline report.
type neverPeer struct{}

func (neverPeer) Init(sim.Context)                  {}
func (neverPeer) OnMessage(sim.PeerID, sim.Message) {}
func (neverPeer) OnQueryReply(sim.QueryReply)       {}

// TestTimeoutErrorReportsPendingPeers checks that a hung run fails with a
// structured error naming the unterminated peers, and still returns its
// result, DeadlineHit set, beside it.
func TestTimeoutErrorReportsPendingPeers(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{
		Resilience: netrt.Resilience{
			ReconnectAttempts: 2,
			ReconnectBase:     2 * time.Millisecond,
		},
	})(&sim.Spec{
		Config:   sim.Config{N: 2, T: 0, L: 64, MsgBits: 64, Seed: 1},
		NewPeer:  func(sim.PeerID) sim.Peer { return neverPeer{} },
		Deadline: 0.4,
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	var terr *netrt.TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("error is %T, want *netrt.TimeoutError: %v", err, err)
	}
	if len(terr.Pending) != 2 {
		t.Fatalf("Pending = %v, want both peers", terr.Pending)
	}
	if res == nil || !res.DeadlineHit || res.Correct {
		t.Errorf("result beside the timeout = %v, want one with DeadlineHit set and not correct", res)
	}
	for _, p := range terr.Pending {
		if !p.Connected {
			t.Errorf("peer %d reported disconnected; it idled on a live conn", p.ID)
		}
	}
	msg := err.Error()
	for _, want := range []string{"timed out", "peer 0", "peer 1"} {
		if !containsStr(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestRunReturnsWithinTimeout: a run whose peers never terminate returns
// its *TimeoutError, with the goroutine profile taken at the deadline,
// within a second of Timeout, and leaves no goroutine behind: no client
// redials or sleeps past the hub's stop.
func TestRunReturnsWithinTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 4, T: 0, L: 64, MsgBits: 64, Seed: 1},
		NewPeer:  func(sim.PeerID) sim.Peer { return neverPeer{} },
		Deadline: (timeout).Seconds(),
	})
	took := time.Since(start)
	var terr *netrt.TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("error is %T, want *netrt.TimeoutError: %v", err, err)
	}
	if took > timeout+time.Second {
		t.Errorf("Run returned %v after it started; Timeout is %v", took, timeout)
	}
	if len(terr.Pending) != 4 || !bytes.Contains(terr.Stacks, []byte("goroutine profile:")) {
		t.Errorf("%d peers pending, want 4; stacks %.60q", len(terr.Pending), terr.Stacks)
	}
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines a second after Run returned, %d before it", runtime.NumGoroutine(), before)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestChaosManySeeds runs a quick sweep to shake out schedule-dependent
// deadlocks; skipped in -short mode.
func TestChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			res, err := netrt.Runner(netrt.Net{Faults: chaosPlan(seed), Resilience: fastResilience()})(&sim.Spec{
				Config:   sim.Config{N: 5, T: 1, L: 300, MsgBits: 128, Seed: seed},
				NewPeer:  crashk.New,
				Faults:   sim.Faults{Fates: sim.Crashes([]sim.PeerID{3}, 0)},
				Deadline: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res)
			}
		})
	}
}
