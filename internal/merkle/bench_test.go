package merkle

import (
	"math/rand"
	"testing"

	"repro/internal/bitarray"
)

// The proof-verify hot path runs once per mirror reply, so its
// allocation budget is pinned by TestVerifyAllocBudget, and the proof
// geometry of the two mirror-reply shapes by TestProofGeometryPinned. The
// benchmark's merkle.verify_* rows time the same path.

func benchCase(l, leafBits int) (root [32]byte, p Params, lo, hi int, bits *bitarray.Array, proof Proof) {
	rng := rand.New(rand.NewSource(11))
	x := bitarray.Random(rng, l)
	tr := Build(x, leafBits)
	p = tr.Params()
	lo, hi = p.Leaves()/4, p.Leaves()/4+max(1, p.Leaves()/8)
	return tr.Root(), p, lo, hi, x.Slice(lo*leafBits, p.SpanBits(lo, hi)), tr.Prove(lo, hi)
}

func BenchmarkVerify(b *testing.B) {
	root, p, lo, hi, bits, proof := benchCase(1<<16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(root, p, lo, hi, bits, proof) {
			b.Fatal("honest proof rejected")
		}
	}
}

func BenchmarkProve(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := bitarray.Random(rng, 1<<16)
	tr := Build(x, 64)
	lo, hi := 100, 140
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Prove(lo, hi)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := bitarray.Random(rng, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(x, 64)
	}
}

// TestVerifyAllocBudget pins the allocation count of one Verify call:
// the frontier slice, the scratch buffer, and nothing else.
func TestVerifyAllocBudget(t *testing.T) {
	root, p, lo, hi, bits, proof := benchCase(1<<14, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if !Verify(root, p, lo, hi, bits, proof) {
			t.Fatal("honest proof rejected")
		}
	})
	if allocs > 4 {
		t.Fatalf("Verify allocates %.1f objects/op, budget 4", allocs)
	}
}

// TestProofGeometryPinned pins, for fixed span sets, the bits verified
// and the proof hashes consumed: narrow single-leaf proofs (audit spot
// checks) and wide span proofs (bulk sub-range retrieval), at the quick
// (L = 2^12, 32-bit leaves) and Table-1 (L = 2^14, 64-bit leaves) scales.
// Either number drifting means the commitment or the proof codec changed
// shape. Every proof goes through AppendTo, DecodeProof and Verify.
func TestProofGeometryPinned(t *testing.T) {
	for _, scale := range []struct {
		name        string
		l, leafBits int
		leaf, span  [2]int // pinned (bits verified, proof hashes) per span set
	}{
		{"quick", 1 << 12, 32, [2]int{256, 56}, [2]int{4448, 13}},
		{"full", 1 << 14, 64, [2]int{512, 64}, [2]int{17728, 14}},
	} {
		x := bitarray.Random(rand.New(rand.NewSource(7)), scale.l)
		tr := Build(x, scale.leafBits)
		root, p := tr.Root(), tr.Params()
		leaves := p.Leaves()
		for _, c := range []struct {
			name  string
			spans [][2]int
			want  [2]int
		}{
			{"leaf", [][2]int{
				{0, 1}, {1, 2}, {leaves / 4, leaves/4 + 1}, {leaves / 2, leaves/2 + 1},
				{leaves - 2, leaves - 1}, {leaves - 1, leaves}, {7, 8}, {leaves - 7, leaves - 6},
			}, scale.leaf},
			{"span", [][2]int{
				{0, leaves / 4}, {leaves / 4, leaves / 2},
				{leaves / 3, 2 * leaves / 3}, {leaves - leaves/4, leaves},
			}, scale.span},
		} {
			bits, hashes := 0, 0
			for _, sp := range c.spans {
				lo, hi := sp[0], sp[1]
				pr, rest, ok := DecodeProof(tr.Prove(lo, hi).AppendTo(nil))
				if !ok || len(rest) != 0 {
					t.Fatalf("%s/%s %v: proof round trip broke", scale.name, c.name, sp)
				}
				n := p.SpanBits(lo, hi)
				if !Verify(root, p, lo, hi, x.Slice(lo*scale.leafBits, n), pr) {
					t.Fatalf("%s/%s %v: genuine proof rejected", scale.name, c.name, sp)
				}
				bits += n
				hashes += len(pr.Hashes)
			}
			if got := [2]int{bits, hashes}; got != c.want {
				t.Errorf("%s/%s: (bits, hashes) = %v, pinned %v", scale.name, c.name, got, c.want)
			}
		}
	}
}
