package source

import (
	"slices"
	"testing"

	"repro/internal/bitarray"
)

// TestFetchKeepsNoIndices: a Source keeps no Request.Indices past Fetch.
// Each source answers the same queries twice over, in two instances built
// alike: one is handed a slice that is written over as soon as Fetch
// returns, the other a slice of its own. The replies — the one already
// returned and every later one — agree.
func TestFetchKeepsNoIndices(t *testing.T) {
	const l = 901
	x := testInput(9, l)
	faults := &FaultPlan{Seed: 4, Outages: []Window{{Start: 3, End: 4}}, FailRate: 0.2, TimeoutRate: 0.1,
		CorruptRate: 0.3, Latency: 0.5, RateBits: 400, RateBurst: 600}
	for _, tc := range []struct {
		name string
		mk   func() Source
	}{
		{"trusted", func() Source { return NewTrusted(x) }},
		{"faulty", func() Source { return Wrap(NewTrusted(x), faults) }},
		{"mirrored-honest", func() Source {
			return NewMirrored(x, &MirrorPlan{Mirrors: 4, LeafBits: 32, Seed: 3}, 2, NewTrusted(x))
		}},
		{"mirrored-byzantine", func() Source {
			return NewMirrored(x, &MirrorPlan{Mirrors: 5, Byz: 4, LeafBits: 32, Seed: 7}, 2, NewTrusted(x))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scribbled, kept := tc.mk(), tc.mk()
			var served int
			for q := 0; q < 40; q++ {
				lo := (q * 97) % (l - 60)
				idx := make([]int, 0, 60)
				for i := lo; i < lo+60; i += 1 + q%3 {
					idx = append(idx, i)
				}
				req := Request{Peer: q % 2, Ordinal: uint64(q/2 + 1), Attempt: 1, Now: float64(q) / 8}
				req.Indices = slices.Clone(idx)
				got, gerr := scribbled.Fetch(req)
				var before *bitarray.Array
				if gerr == nil {
					before = got.Bits.Clone()
				}
				for i := range req.Indices {
					req.Indices[i] = l - 1 - req.Indices[i]
				}
				req.Indices = idx
				want, werr := kept.Fetch(req)
				if (gerr == nil) != (werr == nil) || (gerr != nil && KindOf(gerr) != KindOf(werr)) {
					t.Fatalf("query %d: errors %v and %v", q, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				served++
				if !got.Bits.Equal(before) {
					t.Fatalf("query %d: the reply changed when its indices were written over", q)
				}
				if !got.Bits.Equal(want.Bits) || got.Latency != want.Latency {
					t.Fatalf("query %d: the replies differ", q)
				}
			}
			if served == 0 {
				t.Fatal("no query was served")
			}
			if m, ok := scribbled.(*Mirrored); ok {
				for peer := 0; peer < 2; peer++ {
					if got, want := m.PeerStats(peer), kept.(*Mirrored).PeerStats(peer); got != want {
						t.Errorf("peer %d: mirror counters %+v and %+v", peer, got, want)
					}
				}
			}
		})
	}
}
