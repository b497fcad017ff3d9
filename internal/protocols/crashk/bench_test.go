package crashk

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/sim"
)

// benchShapes are the two cells of the benchmark that run crashk (the
// source of truth for their parameters is benchmark/workloads.go): the
// simulator's, N=128 with T=115 peers crashed from the start and L=4096,
// and the socket runtime's, N=16, T=8, L=65536. The crashed peers are
// placed as download places them.
var benchShapes = []struct {
	name    string
	n, t, L int
}{
	{"des-crashk", 128, 115, 4096},
	{"tcp-crashk", 16, 8, 65536},
}

// phase2Peer returns an honest peer of the shape as it starts phase 2: the
// blocks of the live peers known, those of the crashed ones not. It also
// returns the crashed peers, in increasing order.
func phase2Peer(n, t, L int) (*Peer, []sim.PeerID) {
	crashed := adversary.SpreadFaulty(n, t)
	isCrashed := make(map[sim.PeerID]bool, t)
	for _, q := range crashed {
		isCrashed[q] = true
	}
	id := sim.PeerID(0)
	for isCrashed[id] {
		id++
	}
	p := partitionPeer(id, n, L, ReassignHash)
	ones := bitarray.New(L)
	for o := 0; o < n; o++ {
		if !isCrashed[sim.PeerID(o)] {
			lo, hi := sim.BlockRange(L, n, sim.PeerID(o))
			p.track.LearnRange(lo, hi, ones, lo)
		}
	}
	return p, crashed
}

// BenchmarkAnswerReq2 prices one stage-2 answer in the des-crashk cell: a
// phase-2 request about the 115 crashed peers, each item that peer's share
// of the bits nobody heard. all-me-neither is what the cell answers nearly
// every time: the responder knows none of them. mixed has the responder
// know every third item, which it then supplies.
func BenchmarkAnswerReq2(b *testing.B) {
	sh := benchShapes[0]
	for _, mixed := range []bool{false, true} {
		name := "all-me-neither"
		if mixed {
			name = "mixed"
		}
		b.Run(name, func(b *testing.B) {
			p, crashed := phase2Peer(sh.n, sh.t, sh.L)
			shares := p.unknownByOwner(2)
			zeros := bitarray.New(sh.L)
			req := &Req2{Phase: 2, IdxBits: p.idxBits}
			for k, q := range crashed {
				req.Items = append(req.Items, Req2Item{Q: q, Indices: shares[q]})
				if mixed && k%3 == 0 {
					shares[q].ForEachRange(func(lo, hi int) { p.track.LearnRange(lo, hi, zeros, lo) })
				}
			}
			c := rec(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				p.answerReq2(1, req)
			}
		})
	}
}

// BenchmarkPartition prices the partition of a phase's unknown bits by
// owner: phase 1 on a peer that knows nothing yet, phase 2 on one that
// knows the live peers' blocks, on both cells' shapes.
func BenchmarkPartition(b *testing.B) {
	for _, sh := range benchShapes {
		for _, r := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/phase%d", sh.name, r), func(b *testing.B) {
				p := partitionPeer(0, sh.n, sh.L, ReassignHash)
				if r == 2 {
					p, _ = phase2Peer(sh.n, sh.t, sh.L)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.unknownByOwner(r)
				}
			})
		}
	}
}
