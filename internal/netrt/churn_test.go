package netrt_test

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/trace"
)

// halver is the churn test protocol (mirroring the des runtime's churn
// suite): query the first half of X, then all of X, then terminate. Two
// queries give the action clock room to crash a peer between deliveries,
// and the second (full) query is where a warm rejoin shows: its first
// half is already persisted, so only the remainder goes on the wire.
type halver struct {
	ctx sim.Context
}

func newHalver(sim.PeerID) sim.Peer { return &halver{} }

func (p *halver) Init(ctx sim.Context) {
	p.ctx = ctx
	half := make([]int, ctx.L()/2)
	for i := range half {
		half[i] = i
	}
	ctx.Query(1, half)
}

func (p *halver) OnMessage(sim.PeerID, sim.Message) {}

func (p *halver) OnQueryReply(r sim.QueryReply) {
	switch r.Tag {
	case 1:
		all := make([]int, p.ctx.L())
		for i := range all {
			all[i] = i
		}
		p.ctx.Query(2, all)
	case 2:
		out := bitarray.New(p.ctx.L())
		for j, idx := range r.Indices {
			out.Set(idx, r.Bits.Get(j))
		}
		p.ctx.Output(out)
		p.ctx.Terminate()
	}
}

// TestChurnRejoinWarmOverTCP: peer 0 crashes itself after 4 actions
// (init, query 1, delivery 1, query 2 — the second delivery is the
// dropped excess), checkpoints the 128 bits it verified, and rejoins
// 300ms later. The rejoined incarnation must finish with output X,
// serving its checkpointed bits warm instead of re-fetching them: from a
// given CheckpointDir, and with none given from the temporary directory
// Run creates and removes.
func TestChurnRejoinWarmOverTCP(t *testing.T) {
	t.Run("given dir", func(t *testing.T) { checkRejoinWarm(t, t.TempDir()) })
	t.Run("temp dir", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		checkRejoinWarm(t, "")
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Errorf("Run left %v behind in the temp dir (%v)", left, err)
		}
	})
}

func checkRejoinWarm(t *testing.T, dir string) {
	res, err := netrt.Runner(netrt.Net{CheckpointDir: dir})(&sim.Spec{
		Config:   sim.Config{N: 4, T: 1, L: 256, MsgBits: 64, Seed: 21},
		NewPeer:  newHalver,
		Faults:   sim.Faults{Fates: []sim.Fate{{Peer: 0, CrashAfter: 4, Downtime: 0.3}}},
		Deadline: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", res.Rejoins)
	}
	if res.CheckpointSaves < 1 || res.CheckpointRestores != 1 {
		t.Errorf("checkpoint saves/restores = %d/%d, want >=1/1",
			res.CheckpointSaves, res.CheckpointRestores)
	}
	// The rejoined half-query plus the warm half of the full query: the
	// first 128 bits were served twice from the checkpoint.
	if res.WarmHitBits != 256 {
		t.Errorf("WarmHitBits = %d, want 256", res.WarmHitBits)
	}
	ps := &res.PerPeer[0]
	if ps.Honest || !ps.Crashed || !ps.Rejoined {
		t.Errorf("churn peer flags: honest=%v crashed=%v rejoined=%v", ps.Honest, ps.Crashed, ps.Rejoined)
	}
	if !ps.Terminated || ps.Output == nil {
		t.Fatalf("churn peer did not finish: terminated=%v", ps.Terminated)
	}
	if !ps.OutputCorrect && ps.Output != nil {
		// OutputCorrect is only computed for honest peers; check directly.
		if d, err := ps.Output.FirstDiff(res.PerPeer[1].Output); err == nil && d >= 0 {
			t.Errorf("churn peer output differs from an honest peer at bit %d", d)
		}
	}
	if ps.WarmHitBits != 256 {
		t.Errorf("peer 0 WarmHitBits = %d, want 256", ps.WarmHitBits)
	}
}

// probeCrash is the protocol of TestChurnCrashDuringProbeOverTCP. Every
// peer queries X at Init under its tag — the churn peer 0's first
// incarnation only half of it — and once all of X is in, outputs it and
// terminates. Every other peer first sends peer 0 one message: its
// delivery is the action that crashes peer 0.
type probeCrash struct {
	ctx sim.Context
	tag int
}

func (p *probeCrash) Init(ctx sim.Context) {
	p.ctx = ctx
	n := ctx.L()
	if p.tag == 1 && ctx.ID() == 0 {
		n /= 2
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ctx.Query(p.tag, idx)
}

func (p *probeCrash) OnMessage(sim.PeerID, sim.Message) {}

func (p *probeCrash) OnQueryReply(r sim.QueryReply) {
	if len(r.Indices) < p.ctx.L() {
		return
	}
	if p.ctx.ID() != 0 {
		p.ctx.Send(0, &crashk.Full{Values: r.Bits})
	}
	p.ctx.Output(r.Bits)
	p.ctx.Terminate()
}

// TestChurnCrashDuringProbeOverTCP crashes a churn peer while its
// breaker's half-open probe is out, and checks the rejoined incarnation
// still downloads X. A source outage opens every peer's breaker at its
// first query; the probes after the cooldown succeed, but with injected
// latency, and the plan seed is picked so that peer 0's probe is slow and
// another peer's is fast: that peer's message crashes peer 0 before its
// probe is answered. The rejoined incarnation asks under another tag, so
// the dead probe's reply answers nothing, and its query must go out as a
// fresh probe instead of waiting forever behind the dead one.
func TestChurnCrashDuringProbeOverTCP(t *testing.T) {
	const n, l = 4, 256
	plan := func(seed int64) *source.FaultPlan {
		return &source.FaultPlan{Seed: seed, Outages: []source.Window{{Start: 0, End: 0.3}}, Latency: 1}
	}
	// probeLatency is the injected latency of peer's second source serve:
	// the probe that follows the refused first query.
	probeLatency := func(fp *source.FaultPlan, peer int) float64 {
		rep, err := source.Wrap(source.NewTrusted(bitarray.New(l)), fp).Fetch(
			source.Request{Peer: peer, Indices: []int{0}, Ordinal: 2, Attempt: 1, Now: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Latency
	}
	var fp *source.FaultPlan
	for seed := int64(1); fp == nil; seed++ {
		cand := plan(seed)
		fastest := 1.0
		for peer := 1; peer < n; peer++ {
			fastest = min(fastest, probeLatency(cand, peer))
		}
		if probeLatency(cand, 0) > 0.8 && fastest < 0.2 {
			fp = cand
		}
	}
	incarnations := 0 // NewPeer(0) runs on peer 0's goroutine alone
	res, err := netrt.Runner(netrt.Net{
		CheckpointDir: t.TempDir(),
		Resilience:    netrt.Resilience{QueryTimeout: 2 * time.Second},
	})(&sim.Spec{
		Config: sim.Config{N: n, T: 1, L: l, MsgBits: 64, Seed: 24},
		NewPeer: func(id sim.PeerID) sim.Peer {
			tag := 1
			if id == 0 {
				if incarnations++; incarnations > 1 {
					tag = 2
				}
			}
			return &probeCrash{tag: tag}
		},
		Faults:       sim.Faults{Fates: []sim.Fate{{Peer: 0, CrashAfter: 2, Downtime: 0.1}}},
		SourceFaults: fp,
		SourcePolicy: source.Policy{BaseBackoff: 0.02, MaxBackoff: 0.1, BreakerThreshold: 1, BreakerCooldown: 0.4},
		Deadline:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	ps := &res.PerPeer[0]
	if !ps.Crashed || !ps.Rejoined || !ps.Terminated || ps.BreakerOpens == 0 {
		t.Errorf("churn peer: crashed=%v rejoined=%v terminated=%v breaker opens=%d, want a rejoin after the breaker opened",
			ps.Crashed, ps.Rejoined, ps.Terminated, ps.BreakerOpens)
	}
	if ps.Output == nil || !ps.Output.Equal(res.PerPeer[1].Output) {
		t.Error("the rejoined churn peer did not output X")
	}
}

// announcer is halver with a signal that orders a crash before the run's
// end: on its first reply peer by broadcasts a message before its second
// query, and every other peer terminates only once that message came.
type announcer struct {
	ctx   sim.Context
	by    sim.PeerID
	heard bool
	out   *bitarray.Array
}

func newAnnouncer(by sim.PeerID) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer { return &announcer{by: by} }
}

func (p *announcer) Init(ctx sim.Context) {
	p.ctx = ctx
	ctx.Query(1, firstBits(ctx.L()/2))
}

func (p *announcer) OnMessage(sim.PeerID, sim.Message) {
	p.heard = true
	p.finish()
}

func (p *announcer) OnQueryReply(r sim.QueryReply) {
	if r.Tag == 1 {
		if p.ctx.ID() == p.by {
			p.ctx.Broadcast(&adversary.Junk{Bits: 8})
		}
		p.ctx.Query(2, firstBits(p.ctx.L()))
		return
	}
	p.out = bitarray.New(p.ctx.L())
	for j, idx := range r.Indices {
		p.out.Set(idx, r.Bits.Get(j))
	}
	p.finish()
}

func (p *announcer) finish() {
	if p.out != nil && (p.heard || p.ctx.ID() == p.by) {
		p.ctx.Output(p.out)
		p.ctx.Terminate()
	}
}

// firstBits returns the indices [0, n).
func firstBits(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestChurnNeverRejoinsOverTCP(t *testing.T) {
	// Downtime < 0: a plain mid-run crash. The run must complete without
	// waiting for the crashed peer, and nothing rejoins. A peer whose
	// crash point lies past its last action (as a random crash point
	// may) finishes and is not reported crashed, as on des.
	//
	// Every peer first trades hellos (helloFirst), so the run cannot end
	// before peer 4 has connected: a peer that never connects is
	// reported crashed (TestChurnCrashMidRun). Nothing but hellos is sent
	// before every peer holds them all, so peer 2's actions are fixed:
	// init, its hello's four sends, the four hellos' deliveries, query 1,
	// reply 1 and its broadcast's four sends; its sixteenth, query 2,
	// crashes it. The crash runs in the handler that broadcast, so it
	// precedes every honest termination: honest peers wait for the
	// broadcast, and peer 2's client sees the run end only after that
	// handler returns.
	announcer := newAnnouncer(2)
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config: sim.Config{N: 5, T: 2, L: 256, MsgBits: 64, Seed: 22},
		NewPeer: func(id sim.PeerID) sim.Peer {
			return &helloFirst{Peer: announcer(id), wait: true}
		},
		Faults: sim.Faults{Fates: []sim.Fate{{Peer: 2, CrashAfter: 15, Downtime: -1},
			{Peer: 4, CrashAfter: 1 << 30, Downtime: -1}}},
		Deadline: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Rejoins != 0 || res.CheckpointSaves != 0 {
		t.Errorf("Rejoins=%d CheckpointSaves=%d, want 0/0", res.Rejoins, res.CheckpointSaves)
	}
	if ps := res.PerPeer[2]; ps.Terminated || !ps.Crashed {
		t.Errorf("churn peer 2: terminated=%v crashed=%v, want a crash", ps.Terminated, ps.Crashed)
	}
	if ps := res.PerPeer[4]; ps.Crashed || ps.Honest {
		t.Errorf("churn peer 4: crashed=%v honest=%v, want faulty but never crashed", ps.Crashed, ps.Honest)
	}
}

func TestChurnValidationOverTCP(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Spec, *netrt.Net)
	}{
		{"out of range", func(s *sim.Spec, _ *netrt.Net) {
			s.Faults.Fates = []sim.Fate{{Peer: 9, CrashAfter: 1, Downtime: -1}}
		}},
		{"duplicate", func(s *sim.Spec, _ *netrt.Net) {
			s.Config.T = 2
			s.Faults.Fates = []sim.Fate{{Peer: 0, CrashAfter: 1, Downtime: 1}, {Peer: 0, CrashAfter: 2, Downtime: 1}}
		}},
		{"negative crash point", func(s *sim.Spec, _ *netrt.Net) {
			s.Faults.Fates = []sim.Fate{{Peer: 0, CrashAfter: -1, Downtime: 1}}
		}},
		{"churn plus absent exceeds t", func(s *sim.Spec, _ *netrt.Net) {
			s.Faults.Fates = append(sim.Crashes([]sim.PeerID{1}, 0), sim.Fate{Peer: 0, CrashAfter: 1, Downtime: 1})
		}},
		{"absent and churning", func(s *sim.Spec, _ *netrt.Net) {
			s.Config.T = 2
			s.Faults.Fates = append(sim.Crashes([]sim.PeerID{0}, 0), sim.Fate{Peer: 0, CrashAfter: 1, Downtime: 1})
		}},
		{"outage at a negative time", func(_ *sim.Spec, n *netrt.Net) {
			n.Faults = &netrt.FaultPlan{Outages: []netrt.Outage{{At: -time.Millisecond, Down: time.Millisecond}}}
		}},
		{"outage with a negative downtime", func(_ *sim.Spec, n *netrt.Net) {
			n.Faults = &netrt.FaultPlan{Outages: []netrt.Outage{{At: time.Millisecond, Down: -time.Millisecond}}}
		}},
	}
	for _, tc := range cases {
		spec := &sim.Spec{Config: sim.Config{N: 4, T: 1, L: 64, MsgBits: 64}, NewPeer: naive.New}
		net := netrt.Net{CheckpointDir: t.TempDir()}
		tc.mutate(spec, &net)
		if _, err := netrt.Runner(net)(spec); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestListenerOutageMidDownload(t *testing.T) {
	// Take the hub's listener down almost immediately and bring it back
	// 150ms later. Every peer is severed mid-download and must redial
	// through backoff until the listener returns; every client still
	// finishes with output X.
	//
	// "Mid-download" holds by construction, not by the sockets being slow:
	// with T = 0 nobody finishes a phase without hearing from peer 0, and a
	// partition keeps peer 0's messages from everyone for 20 times the
	// outage delay (and their retransmission for an RTO after that), so the
	// run cannot have ended when the outage timer fires.
	const at, down = 2 * time.Millisecond, 150 * time.Millisecond
	reg := obs.New()
	log := &trace.Memory{} // netrt calls it one event at a time
	res, err := netrt.Runner(netrt.Net{
		Faults: &netrt.FaultPlan{Seed: 23,
			Outages: []netrt.Outage{{At: at, Down: down}},
			Partitions: []netrt.Partition{
				{A: []sim.PeerID{0}, B: []sim.PeerID{1, 2, 3, 4, 5, 6, 7}, Start: 0, Heal: 20 * at},
			}},
	})(&sim.Spec{
		Config:   sim.Config{N: 8, T: 0, L: 4096, MsgBits: 256, Seed: 23},
		NewPeer:  crashk.New,
		Deadline: 30,
		Metrics:  reg,
		Observer: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	for i := range res.PerPeer {
		if !res.PerPeer[i].Terminated {
			t.Errorf("peer %d did not terminate", i)
		}
	}
	// The outage flaps every installed connection, and no peer gets back
	// in before the listener does. A peer that dialed before the outage
	// but was not yet accepted loses its connection without a flap, so
	// there may be more reconnects than flaps.
	var flaps, reconnects int
	for _, ev := range log.Events {
		switch ev.Kind {
		case "flap":
			flaps++
		case "reconnect":
			reconnects++
			if ev.Time < (at + down).Seconds() {
				t.Errorf("peer %d reconnected at %.3fs, while the listener was down", ev.Peer, ev.Time)
			}
		}
	}
	if reconnects < flaps || res.Reconnects != reconnects {
		t.Errorf("flaps=%d reconnect events=%d Result.Reconnects=%d, want a reconnect for every flap",
			flaps, reconnects, res.Reconnects)
	}
	// A backoff sleep follows only a failed dial: the redials that the
	// closed listener refused.
	var backoffs uint64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "dr_net_backoff_seconds" {
			for _, s := range m.Series {
				backoffs += s.Count
			}
		}
	}
	if backoffs == 0 {
		t.Error("no redial failed while the listener was down")
	}
}

// prefixPeer is the broadcast-prefix test protocol. The victim broadcasts
// one message from Init, then queries X; its crash point, inside or just
// past the broadcast, drops the rest. Every other peer queries X, and one
// that the victim's broadcast names waits for it before it outputs X and
// terminates. heard counts each peer's deliveries from the victim.
type prefixPeer struct {
	ctx    sim.Context
	victim sim.PeerID
	msg    sim.Message
	wait   bool
	heard  *atomic.Int32
	out    *bitarray.Array
}

func (p *prefixPeer) Init(ctx sim.Context) {
	p.ctx = ctx
	if ctx.ID() == p.victim {
		ctx.Broadcast(p.msg)
	}
	all := make([]int, ctx.L())
	for i := range all {
		all[i] = i
	}
	ctx.Query(1, all)
}

func (p *prefixPeer) OnMessage(from sim.PeerID, _ sim.Message) {
	if from == p.victim {
		p.heard.Add(1)
		p.finish()
	}
}

func (p *prefixPeer) OnQueryReply(r sim.QueryReply) {
	p.out = bitarray.New(p.ctx.L())
	for j, idx := range r.Indices {
		p.out.Set(idx, r.Bits.Get(j))
	}
	p.finish()
}

func (p *prefixPeer) finish() {
	if p.out != nil && (!p.wait || p.heard.Load() > 0) {
		p.ctx.Output(p.out)
		p.ctx.Terminate()
	}
}

// TestBroadcastPrefixOverTCP: a churn peer whose crash point falls inside a
// broadcast reaches, over sockets, exactly the first k other peers in id
// order, one delivery each, and is charged k recipients' M — k the action
// ticks it had left (Init takes the first). At k = 0 nothing is sent.
func TestBroadcastPrefixOverTCP(t *testing.T) {
	const n, L, msgBits, victim = 5, 256, 64, sim.PeerID(2)
	msg := &crashk.Full{Values: bitarray.New(L)}
	perRecipient := (msg.SizeBits() + msgBits - 1) / msgBits
	others := []sim.PeerID{0, 1, 3, 4}
	for k := 0; k <= n-1; k++ {
		heard := make([]atomic.Int32, n)
		res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
			Config: sim.Config{N: n, T: 1, L: L, MsgBits: msgBits, Seed: int64(40 + k)},
			NewPeer: func(id sim.PeerID) sim.Peer {
				return &prefixPeer{victim: victim, msg: msg, wait: slices.Contains(others[:k], id), heard: &heard[id]}
			},
			Faults:   sim.Faults{Fates: []sim.Fate{{Peer: victim, CrashAfter: 1 + k, Downtime: -1}}},
			Deadline: 30,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Correct || !res.PerPeer[victim].Crashed {
			t.Fatalf("k=%d: correct=%v, victim crashed=%v: %v", k, res.Correct, res.PerPeer[victim].Crashed, res.Failures)
		}
		var reached []sim.PeerID
		for id := range heard {
			switch heard[id].Load() {
			case 0:
			case 1:
				reached = append(reached, sim.PeerID(id))
			default:
				t.Errorf("k=%d: peer %d was delivered the broadcast %d times", k, id, heard[id].Load())
			}
		}
		if fmt.Sprint(reached) != fmt.Sprint(others[:k]) {
			t.Errorf("k=%d: the broadcast reached %v, want %v", k, reached, others[:k])
		}
		if got, want := res.PerPeer[victim].MsgsSent, k*perRecipient; got != want {
			t.Errorf("k=%d: victim charged M=%d, want %d", k, got, want)
		}
	}
}
