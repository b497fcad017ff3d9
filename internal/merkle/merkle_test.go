package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/bitarray"
)

// naiveTree is the reference model: the same hash construction computed
// the slow, obvious way — explicit per-level slices, no shared
// traversal code with the production Tree.
type naiveTree struct {
	p      Params
	levels [][][32]byte
}

func naiveBuild(x *bitarray.Array, leafBits int) *naiveTree {
	p := Params{TotalBits: x.Len(), LeafBits: leafBits}
	var level [][32]byte
	for j := 0; j < p.Leaves(); j++ {
		level = append(level, refLeafHash(j, p.LeafWidth(j), x, j*leafBits))
	}
	nt := &naiveTree{p: p, levels: [][][32]byte{level}}
	for len(level) > 1 {
		var next [][32]byte
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				buf := append([]byte{0x01}, level[i][:]...)
				next = append(next, sha256.Sum256(append(buf, level[i+1][:]...)))
			} else {
				next = append(next, level[i])
			}
		}
		nt.levels = append(nt.levels, next)
		level = next
	}
	return nt
}

// refLeafHash is the leaf hash one bit at a time: leaf j's nb bits start
// at x[off].
func refLeafHash(j, nb int, x *bitarray.Array, off int) [32]byte {
	buf := []byte{0x00}
	buf = binary.AppendUvarint(buf, uint64(j))
	buf = binary.AppendUvarint(buf, uint64(nb))
	packed := make([]byte, (nb+7)/8)
	for k := 0; k < nb; k++ {
		if x.Get(off + k) {
			packed[k/8] |= 1 << (uint(k) % 8)
		}
	}
	return sha256.Sum256(append(buf, packed...))
}

// TestLeafHashMatchesPerBitReference: the leaf buffer is filled from
// 64-bit windows; every leaf width from one bit to past two words, at
// offsets on and off word boundaries, hashes as the per-bit reference does.
func TestLeafHashMatchesPerBitReference(t *testing.T) {
	x := bitarray.Random(rand.New(rand.NewSource(8)), 130+200)
	var scratch []byte
	for nb := 1; nb <= 130; nb++ {
		for _, off := range []int{0, 1, 63, 64, 65, 127, 200} {
			var got [32]byte
			got, scratch = leafHashAt(scratch, nb%7, nb, x, off)
			if got != refLeafHash(nb%7, nb, x, off) {
				t.Fatalf("width %d at offset %d: leaf hash differs from the per-bit reference", nb, off)
			}
		}
	}
}

// TestBuildRootPinned: the root over the conformance corpus's committed
// array is the one its netrt-root frame carries (fixtures/frames.json).
func TestBuildRootPinned(t *testing.T) {
	x := bitarray.Random(rand.New(rand.NewSource(21)), 4096)
	root := Build(x, 64).Root()
	if got, want := hex.EncodeToString(root[:]), "953b5b841e90ffaef8fd2ed66f1180d7bac95e2502525ea6011f0e246867ac7b"; got != want {
		t.Fatalf("root %s, the netrt-root fixture pins %s", got, want)
	}
}

func (nt *naiveTree) root() [32]byte { return nt.levels[len(nt.levels)-1][0] }

// TestBuildMatchesNaiveModel pins the tree construction against the
// reference model over a randomized (L, leafBits) grid.
func TestBuildMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		L := 1 + rng.Intn(700)
		leafBits := 1 + rng.Intn(80)
		x := bitarray.Random(rng, L)
		tr := Build(x, leafBits)
		nt := naiveBuild(x, leafBits)
		if tr.Root() != nt.root() {
			t.Fatalf("L=%d leaf=%d: root mismatch vs naive model", L, leafBits)
		}
		if tr.Levels() != len(nt.levels) {
			t.Fatalf("L=%d leaf=%d: %d levels, naive %d", L, leafBits, tr.Levels(), len(nt.levels))
		}
		for lvl := 0; lvl < tr.Levels(); lvl++ {
			for i := 0; i < tr.LevelWidth(lvl); i++ {
				if tr.Node(lvl, i) != nt.levels[lvl][i] {
					t.Fatalf("L=%d leaf=%d: node (%d,%d) mismatch", L, leafBits, lvl, i)
				}
			}
		}
	}
}

// TestProveVerifyRoundTrip is the property suite: over a randomized
// (L, leafBits, range) grid, every honestly produced (bits, proof)
// pair verifies, through an encode/decode round trip of the proof.
func TestProveVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		L := 1 + rng.Intn(900)
		leafBits := 1 + rng.Intn(96)
		x := bitarray.Random(rng, L)
		tr := Build(x, leafBits)
		p := tr.Params()
		leaves := p.Leaves()
		lo := rng.Intn(leaves)
		hi := lo + 1 + rng.Intn(leaves-lo)
		proof := tr.Prove(lo, hi)

		bits := x.Slice(lo*leafBits, p.SpanBits(lo, hi))
		enc := proof.AppendTo(nil)
		if len(enc) != proof.EncodedLen() {
			t.Fatalf("EncodedLen %d, encoded %d bytes", proof.EncodedLen(), len(enc))
		}
		dec, rest, ok := DecodeProof(enc)
		if !ok || len(rest) != 0 {
			t.Fatalf("decode failed: ok=%v rest=%d", ok, len(rest))
		}
		if !Verify(tr.Root(), p, lo, hi, bits, dec) {
			t.Fatalf("honest proof rejected: L=%d leaf=%d range=[%d,%d)", L, leafBits, lo, hi)
		}
		// The proof size obeys the O(log N) bound: ≤ 2 hashes per level.
		if max := 2 * (tr.Levels() - 1); len(proof.Hashes) > max {
			t.Fatalf("proof has %d hashes, bound %d", len(proof.Hashes), max)
		}
	}
}

// mutateCase is one verification instance the forgery suite perturbs.
type mutateCase struct {
	root  [32]byte
	p     Params
	lo    int
	hi    int
	bits  *bitarray.Array
	proof Proof
}

func honestCase(rng *rand.Rand, L, leafBits int) mutateCase {
	x := bitarray.Random(rng, L)
	tr := Build(x, leafBits)
	p := tr.Params()
	leaves := p.Leaves()
	lo := rng.Intn(leaves)
	hi := lo + 1 + rng.Intn(leaves-lo)
	return mutateCase{
		root: tr.Root(), p: p, lo: lo, hi: hi,
		bits:  x.Slice(lo*leafBits, p.SpanBits(lo, hi)),
		proof: tr.Prove(lo, hi),
	}
}

func (c mutateCase) verify() bool {
	return Verify(c.root, c.p, c.lo, c.hi, c.bits, c.proof)
}

// TestForgerySingleBitMutations is the adversarial suite: starting from
// honest instances, EVERY single-bit mutation of the bits, the proof,
// the root, and every shift of the claimed range must fail Verify.
// 100% rejection is the acceptance bar — one surviving mutation is a
// forgery the mirror tier would accept.
func TestForgerySingleBitMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct{ L, leaf int }{
		{1, 1}, {8, 1}, {64, 8}, {100, 7}, {256, 64}, {640, 64}, {333, 10},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			c := honestCase(rng, sh.L, sh.leaf)
			if !c.verify() {
				t.Fatalf("L=%d leaf=%d: honest case rejected", sh.L, sh.leaf)
			}

			// Every single-bit flip of the served bits.
			for i := 0; i < c.bits.Len(); i++ {
				m := c
				m.bits = c.bits.Clone()
				m.bits.Set(i, !m.bits.Get(i))
				if m.verify() {
					t.Fatalf("L=%d leaf=%d: bit flip at %d accepted", sh.L, sh.leaf, i)
				}
			}
			// Every single-bit flip of the root.
			for i := 0; i < 256; i++ {
				m := c
				m.root[i/8] ^= 1 << (uint(i) % 8)
				if m.verify() {
					t.Fatalf("L=%d leaf=%d: root flip at %d accepted", sh.L, sh.leaf, i)
				}
			}
			// Every single-bit flip of every proof hash.
			for h := range c.proof.Hashes {
				for i := 0; i < 256; i++ {
					m := c
					m.proof = c.proof.Clone()
					m.proof.Hashes[h][i/8] ^= 1 << (uint(i) % 8)
					if m.verify() {
						t.Fatalf("L=%d leaf=%d: proof flip hash=%d bit=%d accepted", sh.L, sh.leaf, h, i)
					}
				}
			}
			// Truncated, extended, and reordered proofs.
			if n := len(c.proof.Hashes); n > 0 {
				m := c
				m.proof = Proof{Hashes: c.proof.Hashes[:n-1]}
				if m.verify() {
					t.Fatalf("L=%d leaf=%d: truncated proof accepted", sh.L, sh.leaf)
				}
			}
			{
				m := c
				m.proof = c.proof.Clone()
				m.proof.Hashes = append(m.proof.Hashes, [32]byte{0xaa})
				if m.verify() {
					t.Fatalf("L=%d leaf=%d: extended proof accepted", sh.L, sh.leaf)
				}
			}
			if n := len(c.proof.Hashes); n >= 2 {
				m := c
				m.proof = c.proof.Clone()
				m.proof.Hashes[0], m.proof.Hashes[1] = m.proof.Hashes[1], m.proof.Hashes[0]
				if m.proof.Hashes[0] != m.proof.Hashes[1] && m.verify() {
					t.Fatalf("L=%d leaf=%d: reordered proof accepted", sh.L, sh.leaf)
				}
			}
			// Every shifted/resized claimed range (leaf-index binding).
			leaves := c.p.Leaves()
			for lo := 0; lo < leaves; lo++ {
				for hi := lo + 1; hi <= leaves; hi++ {
					if lo == c.lo && hi == c.hi {
						continue
					}
					m := c
					m.lo, m.hi = lo, hi
					if m.bits.Len() != m.p.SpanBits(lo, hi) {
						// Shape already refuses; also assert that.
						if m.verify() {
							t.Fatalf("L=%d leaf=%d: wrong-shape range [%d,%d) accepted", sh.L, sh.leaf, lo, hi)
						}
						continue
					}
					if m.verify() {
						t.Fatalf("L=%d leaf=%d: shifted range [%d,%d) (was [%d,%d)) accepted",
							sh.L, sh.leaf, lo, hi, c.lo, c.hi)
					}
				}
			}
		}
	}
}

// TestVerifyShapeRefusals pins the cheap structural refusals.
func TestVerifyShapeRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := bitarray.Random(rng, 256)
	tr := Build(x, 64)
	p := tr.Params()
	good := tr.Prove(1, 3)
	bits := x.Slice(64, 128)
	if !Verify(tr.Root(), p, 1, 3, bits, good) {
		t.Fatal("honest case rejected")
	}
	cases := []struct {
		name string
		ok   bool
	}{
		{"nil bits", Verify(tr.Root(), p, 1, 3, nil, good)},
		{"empty range", Verify(tr.Root(), p, 2, 2, bitarray.New(0), good)},
		{"inverted range", Verify(tr.Root(), p, 3, 1, bits, good)},
		{"range past end", Verify(tr.Root(), p, 3, 5, bits, good)},
		{"negative lo", Verify(tr.Root(), p, -1, 1, bits, good)},
		{"bad params", Verify(tr.Root(), Params{TotalBits: 0, LeafBits: 64}, 1, 3, bits, good)},
		{"oversized leaf", Verify(tr.Root(), Params{TotalBits: 256, LeafBits: MaxLeafBits + 1}, 1, 3, bits, good)},
	}
	for _, c := range cases {
		if c.ok {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestDecodeProofHostile pins decoder refusals on hostile inputs.
func TestDecodeProofHostile(t *testing.T) {
	if _, _, ok := DecodeProof(nil); ok {
		t.Error("empty input accepted")
	}
	if _, _, ok := DecodeProof(binary.AppendUvarint(nil, maxProofHashes+1)); ok {
		t.Error("oversized count accepted")
	}
	// Count promises more hashes than the payload holds.
	short := binary.AppendUvarint(nil, 4)
	short = append(short, make([]byte, 3*32)...)
	if _, _, ok := DecodeProof(short); ok {
		t.Error("truncated hash payload accepted")
	}
	// Trailing bytes are returned, not consumed.
	enc := Proof{Hashes: [][32]byte{{1}, {2}}}.AppendTo(nil)
	enc = append(enc, 0xde, 0xad)
	pr, rest, ok := DecodeProof(enc)
	if !ok || len(pr.Hashes) != 2 || len(rest) != 2 {
		t.Errorf("round trip with trailer: ok=%v hashes=%d rest=%d", ok, len(pr.Hashes), len(rest))
	}
}

// TestLeafSpan pins the bit-range → leaf-range widening.
func TestLeafSpan(t *testing.T) {
	p := Params{TotalBits: 200, LeafBits: 64}
	cases := []struct{ lo, hi, wantLo, wantHi int }{
		{0, 0, 0, 1}, {0, 63, 0, 1}, {0, 64, 0, 2}, {63, 64, 0, 2},
		{64, 127, 1, 2}, {100, 199, 1, 4}, {199, 199, 3, 4},
	}
	for _, c := range cases {
		lo, hi := p.LeafSpan(c.lo, c.hi)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("LeafSpan(%d,%d) = [%d,%d), want [%d,%d)", c.lo, c.hi, lo, hi, c.wantLo, c.wantHi)
		}
	}
	if got := p.SpanBits(3, 4); got != 200-3*64 {
		t.Errorf("SpanBits(3,4) = %d", got)
	}
	if got := p.Leaves(); got != 4 {
		t.Errorf("Leaves() = %d", got)
	}
}
