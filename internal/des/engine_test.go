package des_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/sim"
)

// echoOnce sends one fixed-size message to every peer at start and
// terminates after hearing from everyone it can.
type waitForPeers struct {
	ctx   sim.Context
	need  int
	heard map[sim.PeerID]bool
	size  int
}

type ping struct{ bits int }

func (p *ping) SizeBits() int { return p.bits }

func newWaitForPeers(need, size int) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer {
		return &waitForPeers{need: need, heard: map[sim.PeerID]bool{}, size: size}
	}
}

func (w *waitForPeers) Init(ctx sim.Context) {
	w.ctx = ctx
	ctx.Broadcast(&ping{bits: w.size})
	w.check()
}

func (w *waitForPeers) OnMessage(from sim.PeerID, _ sim.Message) {
	w.heard[from] = true
	w.check()
}

func (w *waitForPeers) OnQueryReply(sim.QueryReply) {}

func (w *waitForPeers) check() {
	if len(w.heard) >= w.need {
		w.ctx.Output(bitarray.New(w.ctx.L()))
		w.ctx.Terminate()
	}
}

// TestWaitForAllDeadlocks demonstrates the paper's central liveness rule:
// a protocol whose peers wait for messages from ALL n−1 others deadlocks
// as soon as one peer crashes, while waiting for n−t−1 stays live. The
// engine's deadlock detector is what makes this observable.
func TestWaitForAllDeadlocks(t *testing.T) {
	input := bitarray.New(8)
	base := sim.Spec{
		Config: sim.Config{N: 6, T: 1, L: 8, MsgBits: 64, Seed: 1, Input: input},
		Delays: adversary.NewFixed(0.5),
		Faults: sim.Faults{Fates: sim.Crashes([]sim.PeerID{2}, 0)},
	}

	waitAll := base
	waitAll.NewPeer = newWaitForPeers(5, 8) // all n−1 others
	res, err := des.New().Run(&waitAll)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("waiting for all n−1 should deadlock under one crash: %v", res)
	}

	waitQuorum := base
	waitQuorum.NewPeer = newWaitForPeers(4, 8) // n−t−1 others
	res, err = des.New().Run(&waitQuorum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("waiting for n−t−1 must not deadlock: %v", res)
	}
	for _, ps := range res.PerPeer {
		if ps.Honest && !ps.Terminated {
			t.Fatalf("honest peer %d did not terminate", ps.ID)
		}
	}
}

func TestMessageChunkAccounting(t *testing.T) {
	// A 1000-bit message over b=64 counts as ⌈1000/64⌉ = 16 messages.
	spec := &sim.Spec{
		Config:  sim.Config{N: 3, T: 0, L: 8, MsgBits: 64, Seed: 1},
		NewPeer: newWaitForPeers(2, 1000),
		Delays:  adversary.NewFixed(0.5),
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantPerPeer := 2 * 16 // broadcast to 2 peers, 16 chunks each
	for _, ps := range res.PerPeer {
		if ps.MsgsSent != wantPerPeer {
			t.Errorf("peer %d sent %d chunk-messages, want %d", ps.ID, ps.MsgsSent, wantPerPeer)
		}
		if ps.MsgBitsSent != 2*1000 {
			t.Errorf("peer %d sent %d bits, want 2000", ps.ID, ps.MsgBitsSent)
		}
	}
}

func TestEventCap(t *testing.T) {
	// Two peers ping-pong forever; the cap must cut them off and report.
	spec := &sim.Spec{
		Config:  sim.Config{N: 2, T: 0, L: 8, MsgBits: 64, Seed: 1, MaxEvents: 500},
		NewPeer: func(sim.PeerID) sim.Peer { return &pingPong{} },
		Delays:  adversary.NewFixed(0.1),
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EventCapHit {
		t.Fatalf("expected event cap: %v", res)
	}
	if res.Correct {
		t.Fatal("capped run must not be correct")
	}
}

type pingPong struct{ ctx sim.Context }

func (p *pingPong) Init(ctx sim.Context) {
	p.ctx = ctx
	ctx.Broadcast(&ping{bits: 8})
}
func (p *pingPong) OnMessage(sim.PeerID, sim.Message) { p.ctx.Broadcast(&ping{bits: 8}) }
func (p *pingPong) OnQueryReply(sim.QueryReply)       {}

// earlySender fires a message to peer 1 at t≈0; peer 1 starts late.
func TestPreStartBuffering(t *testing.T) {
	// Peer 1's start is delayed past the message arrival; the engine
	// must buffer and deliver after Init rather than invoking a handler
	// on an uninitialized peer.
	delays := &startLate{inner: adversary.NewFixed(0.1), late: 1, delay: 50}
	spec := &sim.Spec{
		Config:  sim.Config{N: 2, T: 0, L: 8, MsgBits: 64, Seed: 1},
		NewPeer: newWaitForPeers(1, 8),
		Delays:  delays,
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerPeer[1].Terminated {
		t.Fatalf("late-starting peer did not process buffered message: %v", res)
	}
	if res.PerPeer[1].TermTime < 50 {
		t.Errorf("late peer terminated at %.1f, before its start", res.PerPeer[1].TermTime)
	}
}

type startLate struct {
	inner sim.DelayPolicy
	late  sim.PeerID
	delay float64
}

func (s *startLate) MessageDelay(f, to sim.PeerID, now float64, size int) float64 {
	return s.inner.MessageDelay(f, to, now, size)
}
func (s *startLate) QueryDelay(p sim.PeerID, now float64) float64 {
	return s.inner.QueryDelay(p, now)
}
func (s *startLate) StartDelay(p sim.PeerID) float64 {
	if p == s.late {
		return s.delay
	}
	return 0
}

func TestContextMisusePanics(t *testing.T) {
	// Using a peer's context outside its handler is a programming error
	// the engine must catch loudly.
	var leaked sim.Context
	spec := &sim.Spec{
		Config: sim.Config{N: 2, T: 0, L: 8, MsgBits: 64, Seed: 1},
		NewPeer: func(sim.PeerID) sim.Peer {
			return &ctxLeaker{sink: &leaked}
		},
		Delays: adversary.NewFixed(0.1),
	}
	if _, err := des.New().Run(spec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-handler context use")
		}
	}()
	leaked.Send(0, &ping{bits: 8})
}

type ctxLeaker struct{ sink *sim.Context }

func (c *ctxLeaker) Init(ctx sim.Context) {
	*c.sink = ctx
	ctx.Output(bitarray.New(ctx.L()))
	ctx.Terminate()
}
func (c *ctxLeaker) OnMessage(sim.PeerID, sim.Message) {}
func (c *ctxLeaker) OnQueryReply(sim.QueryReply)       {}
