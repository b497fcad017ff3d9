// Package merkle implements the commitment scheme behind the verified
// sub-range retrieval tier (see docs/MODEL.md "Untrusted mirrors"): the
// source commits to the L-bit array X with a Merkle tree at a
// configurable leaf granularity, and any contiguous leaf range can then
// be verified against the 256-bit root with an O(log N)×32B sibling
// path — so peers can accept data from untrusted mirrors, and the
// hardened supervisor can audit a whole output against one root fetch.
//
// Construction (pinned by docs/SPEC.md and the conformance corpus —
// changing it is a breaking protocol change):
//
//	leafHash(j) = SHA-256(0x00 ‖ uvarint(j) ‖ uvarint(nbits) ‖ bytes)
//	nodeHash    = SHA-256(0x01 ‖ left ‖ right)
//
// where j is the absolute leaf index, nbits the number of bits in that
// leaf (only the final leaf may be short), and bytes the leaf's bits
// packed LSB-first into ⌈nbits/8⌉ bytes. An odd node at the end of a
// level is promoted unchanged. Binding the leaf index and width into
// the leaf hash makes every range-shift forgery a hash mismatch: the
// same bits presented at a different offset verify against different
// leaf hashes.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/bitarray"
)

// MaxLeafBits bounds the leaf granularity (a hostile Params can not
// force pathological allocations during Verify).
const MaxLeafBits = 1 << 16

// maxProofHashes bounds a decoded proof: a legitimate proof holds at
// most two sibling hashes per tree level, and the index space caps
// trees at 2^40 leaves, so 256 is far beyond any honest proof.
const maxProofHashes = 256

// HashBytes is the size of one hash / the root commitment in bytes.
const HashBytes = sha256.Size

// RootBits is the query-bit cost of fetching the commitment root from
// the authoritative source (charged once per audit or mirror session).
const RootBits = HashBytes * 8

// Params fixes the tree shape: the committed array length and the leaf
// granularity. Both sides of a verification must agree on Params (they
// ride the runtime configuration, not the wire).
type Params struct {
	// TotalBits is the committed array length L in bits.
	TotalBits int
	// LeafBits is the leaf granularity; the final leaf may be shorter.
	LeafBits int
}

// Validate reports shape errors.
func (p Params) Validate() error {
	if p.TotalBits < 1 {
		return fmt.Errorf("merkle: TotalBits %d < 1", p.TotalBits)
	}
	if p.LeafBits < 1 || p.LeafBits > MaxLeafBits {
		return fmt.Errorf("merkle: LeafBits %d outside [1, %d]", p.LeafBits, MaxLeafBits)
	}
	return nil
}

// Leaves returns the number of leaves.
func (p Params) Leaves() int { return (p.TotalBits + p.LeafBits - 1) / p.LeafBits }

// LeafWidth returns the number of bits in leaf j (only the final leaf
// may be short).
func (p Params) LeafWidth(j int) int {
	if (j+1)*p.LeafBits > p.TotalBits {
		return p.TotalBits - j*p.LeafBits
	}
	return p.LeafBits
}

// LeafSpan widens the bit range [lo, hi] (inclusive indices) to the
// covering leaf range [leafLo, leafHi).
func (p Params) LeafSpan(lo, hi int) (leafLo, leafHi int) {
	return lo / p.LeafBits, hi/p.LeafBits + 1
}

// SpanBits returns the number of bits covered by leaves [leafLo, leafHi).
func (p Params) SpanBits(leafLo, leafHi int) int {
	end := leafHi * p.LeafBits
	if end > p.TotalBits {
		end = p.TotalBits
	}
	return end - leafLo*p.LeafBits
}

// Tree is the full commitment tree over one array. Building it costs
// O(N); Prove is O(log N) lookups into the stored levels.
type Tree struct {
	p      Params
	levels [][][HashBytes]byte // levels[0] = leaf hashes, last = [root]
}

// Build commits to x at the given leaf granularity.
func Build(x *bitarray.Array, leafBits int) *Tree {
	p := Params{TotalBits: x.Len(), LeafBits: leafBits}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	leaves := p.Leaves()
	level := make([][HashBytes]byte, leaves)
	var scratch []byte
	for j := 0; j < leaves; j++ {
		level[j], scratch = leafHash(scratch, j, p.LeafWidth(j), x, j*leafBits)
	}
	t := &Tree{p: p, levels: [][][HashBytes]byte{level}}
	for len(level) > 1 {
		next := make([][HashBytes]byte, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next[i/2], scratch = nodeHash(scratch, level[i], level[i+1])
			} else {
				next[i/2] = level[i] // odd node promotes unchanged
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Params returns the tree shape.
func (t *Tree) Params() Params { return t.p }

// Root returns the 256-bit commitment.
func (t *Tree) Root() [HashBytes]byte { return t.levels[len(t.levels)-1][0] }

// Levels returns the number of stored levels (leaf level included).
func (t *Tree) Levels() int { return len(t.levels) }

// LevelWidth returns the node count at a level (0 = leaves).
func (t *Tree) LevelWidth(level int) int { return len(t.levels[level]) }

// Node returns one interior or leaf hash; the hardened audit walks
// these during its logarithmic descent.
func (t *Tree) Node(level, idx int) [HashBytes]byte { return t.levels[level][idx] }

// Prove returns the sibling path authenticating leaves [leafLo, leafHi)
// against the root. Hash order matches Verify's consumption order: per
// level, the left-boundary sibling (if any) then the right-boundary
// sibling (if any), bottom level first.
func (t *Tree) Prove(leafLo, leafHi int) Proof {
	leaves := len(t.levels[0])
	if leafLo < 0 || leafHi <= leafLo || leafHi > leaves {
		panic(fmt.Sprintf("merkle: prove range [%d, %d) outside %d leaves", leafLo, leafHi, leaves))
	}
	a, b, width := leafLo, leafHi, leaves
	var pr Proof
	for lvl := 0; width > 1; lvl++ {
		if a%2 == 1 {
			pr.Hashes = append(pr.Hashes, t.levels[lvl][a-1])
			a--
		}
		if b%2 == 1 && b < width {
			pr.Hashes = append(pr.Hashes, t.levels[lvl][b])
			b++
		}
		a /= 2
		b = (b + 1) / 2
		width = (width + 1) / 2
	}
	return pr
}

// Proof is a sibling path for one contiguous leaf range.
type Proof struct {
	Hashes [][HashBytes]byte
}

// EncodedLen returns the length of the AppendTo serialization.
func (pr Proof) EncodedLen() int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(len(pr.Hashes))) + len(pr.Hashes)*HashBytes
}

// AppendTo appends the wire form — uvarint count, then the raw 32-byte
// hashes — to dst and returns the extended slice (the allocation-free
// encode path, mirroring the wire package's primitives).
func (pr Proof) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pr.Hashes)))
	for i := range pr.Hashes {
		dst = append(dst, pr.Hashes[i][:]...)
	}
	return dst
}

// DecodeProof decodes one proof from data, returning the remaining
// bytes. It refuses counts beyond maxProofHashes so a hostile frame
// cannot force a large allocation.
func DecodeProof(data []byte) (pr Proof, rest []byte, ok bool) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 || cnt > maxProofHashes {
		return Proof{}, nil, false
	}
	data = data[n:]
	if uint64(len(data)) < cnt*HashBytes {
		return Proof{}, nil, false
	}
	if cnt > 0 {
		pr.Hashes = make([][HashBytes]byte, cnt)
		for i := range pr.Hashes {
			copy(pr.Hashes[i][:], data[i*HashBytes:])
		}
	}
	return pr, data[cnt*HashBytes:], true
}

// Clone returns a deep copy of the proof.
func (pr Proof) Clone() Proof {
	return Proof{Hashes: append([][HashBytes]byte(nil), pr.Hashes...)}
}

// Verify checks that bits are exactly the contents of leaves
// [leafLo, leafHi) of the array committed to by root. bits must hold
// SpanBits(leafLo, leafHi) bits (the final leaf may be short). It
// returns false on any shape violation, any hash mismatch, and any
// proof that is too short or too long — surplus hashes are a forgery
// signal, never ignored.
func Verify(root [HashBytes]byte, p Params, leafLo, leafHi int, bits *bitarray.Array, proof Proof) bool {
	if p.Validate() != nil {
		return false
	}
	leaves := p.Leaves()
	if leafLo < 0 || leafHi <= leafLo || leafHi > leaves {
		return false
	}
	if bits == nil || bits.Len() != p.SpanBits(leafLo, leafHi) {
		return false
	}
	frontier := make([][HashBytes]byte, leafHi-leafLo, leafHi-leafLo+1)
	scratch := make([]byte, 0, 2*HashBytes+1)
	off := 0
	for j := leafLo; j < leafHi; j++ {
		nb := p.LeafWidth(j)
		frontier[j-leafLo], scratch = leafHashAt(scratch, j, nb, bits, off)
		off += nb
	}
	a, b, width := leafLo, leafHi, leaves
	pi := 0
	for width > 1 {
		if a%2 == 1 {
			if pi == len(proof.Hashes) {
				return false
			}
			frontier = append(frontier, [HashBytes]byte{})
			copy(frontier[1:], frontier)
			frontier[0] = proof.Hashes[pi]
			pi++
			a--
		}
		if b%2 == 1 && b < width {
			if pi == len(proof.Hashes) {
				return false
			}
			frontier = append(frontier, proof.Hashes[pi])
			pi++
			b++
		}
		// a is even; pairs fold, and when b reached an odd level width
		// the trailing element promotes unchanged.
		k := 0
		for i := 0; i < len(frontier); i += 2 {
			if i+1 < len(frontier) {
				frontier[k], scratch = nodeHash(scratch, frontier[i], frontier[i+1])
			} else {
				frontier[k] = frontier[i]
			}
			k++
		}
		frontier = frontier[:k]
		a /= 2
		b = (b + 1) / 2
		width = (width + 1) / 2
	}
	return pi == len(proof.Hashes) && frontier[0] == root
}

// leafHash hashes leaf j whose bits start at x[start]. It returns the
// (possibly grown) scratch buffer so tight loops stay allocation-lean.
func leafHash(scratch []byte, j, nbits int, x *bitarray.Array, start int) ([HashBytes]byte, []byte) {
	return leafHashAt(scratch, j, nbits, x, start)
}

func leafHashAt(scratch []byte, j, nbits int, bits *bitarray.Array, off int) ([HashBytes]byte, []byte) {
	buf := append(scratch[:0], 0x00)
	buf = binary.AppendUvarint(buf, uint64(j))
	buf = binary.AppendUvarint(buf, uint64(nbits))
	// The leaf's bits, little-endian: bit k of the leaf is bit k%8 of byte
	// k/8, so a 64-bit window is eight bytes as they stand.
	for k := 0; k < nbits; k += 64 {
		n := min(64, nbits-k)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], bits.Bits64(off+k, n))
		buf = append(buf, w[:(n+7)/8]...)
	}
	return sha256.Sum256(buf), buf
}

func nodeHash(scratch []byte, l, r [HashBytes]byte) ([HashBytes]byte, []byte) {
	buf := append(scratch[:0], 0x01)
	buf = append(buf, l[:]...)
	buf = append(buf, r[:]...)
	return sha256.Sum256(buf), buf
}
