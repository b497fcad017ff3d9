package harden

import (
	"math/bits"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/merkle"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

func merkleAuditInput(L int) *bitarray.Array {
	x := bitarray.New(L)
	for i := 0; i < L; i += 3 {
		x.Set(i, true)
	}
	return x
}

// merkleAuditBound is the acceptance ceiling for one peer's commitment
// audit: the root fetch, two child hashes per descent level, and one
// leaf — O(log N) source bits, independent of L beyond the leaf.
func merkleAuditBound(p merkle.Params) int {
	depth := bits.Len(uint(p.Leaves() - 1))
	return merkle.RootBits + depth*2*merkle.RootBits + p.LeafBits
}

// TestMerkleAuditCleanOutput: an exact output verifies with a single
// root fetch (256 bits) and the whole array joins the verified bits.
func TestMerkleAuditCleanOutput(t *testing.T) {
	const L = 4096
	input := merkleAuditInput(L)
	src := merkle.Build(input, 64)
	res := &sim.Result{PerPeer: []sim.PeerStats{
		{ID: 0, Honest: true, Terminated: true, Output: input.Clone()},
	}}
	verified := trackers(1, L)
	rep := runMerkleAudit(res, src, input, verified)
	if rep.Peers != 1 || len(rep.Mismatches) != 0 {
		t.Fatalf("clean output: peers=%d mismatches=%v", rep.Peers, rep.Mismatches)
	}
	if rep.Bits != merkle.RootBits {
		t.Fatalf("clean audit charged %d bits, want exactly RootBits=%d", rep.Bits, merkle.RootBits)
	}
	if n := verified[0].UnknownCount(); n != 0 {
		t.Fatalf("root match left %d of %d bits unverified, want none", n, L)
	}
}

// TestMerkleAuditLocalizesForgery: any single flipped bit flips the
// root, and the descent pins the exact index at O(log N) cost — the
// ISSUE's acceptance bound RootBits + log2(leaves)·2·RootBits + leaf.
func TestMerkleAuditLocalizesForgery(t *testing.T) {
	const L = 4096
	input := merkleAuditInput(L)
	src := merkle.Build(input, 64)
	for _, flip := range []int{0, 1, 63, 64, 1777, L - 1} {
		forged := input.Clone()
		forged.Set(flip, !forged.Get(flip))
		res := &sim.Result{PerPeer: []sim.PeerStats{
			{ID: 0, Honest: true, Terminated: true, Output: forged},
		}}
		verified := trackers(1, L)
		rep := runMerkleAudit(res, src, input, verified)
		if len(rep.Mismatches) != 1 || rep.Mismatches[0].Index != flip {
			t.Fatalf("flip %d: mismatches = %v, want exactly index %d", flip, rep.Mismatches, flip)
		}
		if bound := merkleAuditBound(src.Params()); rep.Bits > bound {
			t.Fatalf("flip %d: audit charged %d bits, above the O(log N) bound %d", flip, rep.Bits, bound)
		}
		if rep.Bits >= L {
			t.Fatalf("flip %d: audit charged %d bits — no cheaper than re-downloading L=%d", flip, rep.Bits, L)
		}
		// The fetched leaf's truth joined the verified bits.
		if v, ok := verified[0].Get(flip); !ok || v != input.Get(flip) {
			t.Fatalf("flip %d: verified bit = %v %v, want source truth", flip, v, ok)
		}
	}
}

// TestMerkleAuditCostGrowsLogarithmically: quadrupling L adds a
// constant number of descent levels to the forgery-localization cost
// (2 levels per 4×), while the sampling audit's guarantee would need
// k = Ω(L) to match the same zero-escape certainty.
func TestMerkleAuditCostGrowsLogarithmically(t *testing.T) {
	cost := func(L int) int {
		input := merkleAuditInput(L)
		src := merkle.Build(input, 64)
		forged := input.Clone()
		forged.Set(L-1, !forged.Get(L-1))
		res := &sim.Result{PerPeer: []sim.PeerStats{
			{ID: 0, Honest: true, Terminated: true, Output: forged},
		}}
		return runMerkleAudit(res, src, input, trackers(1, L)).Bits
	}
	c1, c2 := cost(1<<12), cost(1<<14)
	if c2 != c1+2*2*merkle.RootBits {
		t.Fatalf("cost(2^14)=%d, want cost(2^12)=%d plus two levels (%d)", c2, c1, 2*2*merkle.RootBits)
	}
}

// TestMerkleAuditDegenerateOutputs: nil outputs keep the -1 no-output
// marker, wrong-length outputs are exposed by the root fetch alone, and
// non-terminated or Byzantine peers stay unaudited.
func TestMerkleAuditDegenerateOutputs(t *testing.T) {
	const L = 256
	input := merkleAuditInput(L)
	src := merkle.Build(input, 64)
	short := input.Slice(0, 128)
	res := &sim.Result{PerPeer: []sim.PeerStats{
		{ID: 0, Honest: true, Terminated: true, Output: nil},
		{ID: 1, Honest: true, Terminated: true, Output: short},
		{ID: 2, Honest: false, Terminated: true, Output: nil},
		{ID: 3, Honest: true, Terminated: false},
	}}
	rep := runMerkleAudit(res, src, input, trackers(4, L))
	if rep.Peers != 2 {
		t.Fatalf("audited %d peers, want 2", rep.Peers)
	}
	if len(rep.Mismatches) != 2 {
		t.Fatalf("mismatches = %v, want 2", rep.Mismatches)
	}
	if rep.Mismatches[0] != (AuditMismatch{Peer: 0, Index: -1}) {
		t.Fatalf("nil output: %v", rep.Mismatches[0])
	}
	if rep.Mismatches[1] != (AuditMismatch{Peer: 1, Index: 128}) {
		t.Fatalf("short output: %v, want mismatch at its first missing bit", rep.Mismatches[1])
	}
	if rep.PerPeerBits[1] != merkle.RootBits {
		t.Fatalf("length mismatch charged %d, want one root fetch", rep.PerPeerBits[1])
	}
}

// forgingPeer terminates immediately with a one-bit-wrong output: the
// cheapest possible forgery, invisible to any detector except an audit.
type forgingPeer struct {
	ctx  sim.Context
	flip int
}

func (f *forgingPeer) Init(ctx sim.Context) {
	f.ctx = ctx
	out := bitarray.New(ctx.L())
	out.Set(f.flip, true) // input bit f.flip is false in these tests
	ctx.Output(out)
	ctx.Terminate()
}
func (f *forgingPeer) OnMessage(sim.PeerID, sim.Message) {}
func (f *forgingPeer) OnQueryReply(sim.QueryReply)       {}

// TestRunMerkleAuditDetectsAndCorrects: the supervisor under a mirror
// plan, whose commitment audit it then runs, catches a one-bit forgery no sampling budget is
// guaranteed to see, escalates, and the honest rung's clean output is
// verified by a single root fetch. The hardened Q stays L + O(log N).
func TestRunMerkleAuditDetectsAndCorrects(t *testing.T) {
	const L = 2048
	mirrors, err := source.ParseMirrorPlan("mirrors=1,byz=0,leaf=64")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(Config{
		Base: sim.Spec{
			Config: sim.Config{
				N: 4, T: 0, L: L, MsgBits: 64, Seed: 77,
				Input: bitarray.New(L), // all-zero input; the forger flips bit 1291
			},
			Delays:  adversary.NewRandomUnit(78),
			Mirrors: mirrors,
		},
		Rungs: []Rung{
			{Name: "forger", NewPeer: func(sim.PeerID) sim.Peer { return &forgingPeer{flip: 1291} }},
			{Name: "naive", NewPeer: naive.NewBatched(64)},
		},
		Run: des.New().Run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || !out.Corrected {
		t.Fatalf("detected=%v corrected=%v, want both", out.Detected, out.Corrected)
	}
	found := false
	for _, v := range out.Attempts[0].Violations {
		if v.Kind == ViolationAudit {
			found = true
		}
	}
	if !found {
		t.Fatalf("forger attempt raised no audit violation: %v", out.Attempts[0].Violations)
	}
	if !out.Result.Correct {
		t.Fatalf("final attempt incorrect")
	}
	p := merkle.Params{TotalBits: L, LeafBits: 64}
	// Two attempts, each auditing ≤ the log bound per peer, on top of the
	// naive rung's L protocol bits (minus the warm bits the first audit's
	// descent already verified).
	if maxQ := L + 2*merkleAuditBound(p); out.Result.Q > maxQ {
		t.Fatalf("hardened Q = %d, want ≤ L + 2·auditBound = %d", out.Result.Q, maxQ)
	}
	if out.Result.Q < L {
		t.Fatalf("hardened Q = %d below L = %d — protocol bits went missing", out.Result.Q, L)
	}
}
