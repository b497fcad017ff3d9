package netrt_test

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/live"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/source"
)

// askTwice issues the identical query — every index of X under one tag —
// twice before either reply arrives, and outputs X from the second reply.
type askTwice struct {
	ctx     sim.Context
	replies int
}

func (p *askTwice) Init(ctx sim.Context) {
	p.ctx = ctx
	for range 2 {
		all := make([]int, ctx.L())
		for i := range all {
			all[i] = i
		}
		ctx.Query(1, all)
	}
}

func (p *askTwice) OnMessage(sim.PeerID, sim.Message) {}

func (p *askTwice) OnQueryReply(r sim.QueryReply) {
	if p.replies++; p.replies < 2 {
		return
	}
	out := bitarray.New(p.ctx.L())
	for j, idx := range r.Indices {
		out.Set(idx, r.Bits.Get(j))
	}
	p.ctx.Output(out)
	p.ctx.Terminate()
}

// TestIdenticalQueriesChargedPerCall pins the paper's Q on every runtime:
// each Query call is charged its len(indices) bits, so a protocol that
// asks the identical question twice pays twice — whether the source or a
// verified mirror proof answers, and whatever the runtime.
func TestIdenticalQueriesChargedPerCall(t *testing.T) {
	const n, l = 4, 256
	newPeer := func(sim.PeerID) sim.Peer { return &askTwice{} }
	for _, fleet := range []string{"", "mirrors=4,leaf=64,seed=5"} {
		var mirrors *source.MirrorPlan
		if fleet != "" {
			var err error
			if mirrors, err = source.ParseMirrorPlan(fleet); err != nil {
				t.Fatal(err)
			}
		}
		spec := func() *sim.Spec {
			return &sim.Spec{Config: sim.Config{N: n, T: 0, L: l, MsgBits: 64, Seed: 41},
				NewPeer: newPeer, Delays: adversary.NewRandomUnit(41), Mirrors: mirrors}
		}
		liveRT := live.New()
		liveRT.TimeScale = 500 * time.Microsecond
		runs := map[string]func() (*sim.Result, error){
			"des":  func() (*sim.Result, error) { return des.New().Run(spec()) },
			"live": func() (*sim.Result, error) { return liveRT.Run(spec()) },
			"tcp": func() (*sim.Result, error) {
				return netrt.Run(netrt.Config{N: n, T: 0, L: l, MsgBits: 64, Seed: 41,
					NewPeer: newPeer, Mirrors: mirrors, Timeout: 30 * time.Second})
			},
		}
		for name, run := range runs {
			res, err := run()
			if err != nil {
				t.Fatalf("%s mirrors=%q: %v", name, fleet, err)
			}
			if !res.Correct {
				t.Fatalf("%s mirrors=%q: incorrect: %v", name, fleet, res)
			}
			for _, ps := range res.PerPeer {
				if ps.QueryBits != 2*l || ps.QueryCalls != 2 {
					t.Errorf("%s mirrors=%q: peer %d charged %d bits in %d calls, want %d in 2",
						name, fleet, ps.ID, ps.QueryBits, ps.QueryCalls, 2*l)
				}
			}
		}
	}
}
