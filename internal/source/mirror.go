package source

import (
	"sync"

	"repro/internal/bitarray"
	"repro/internal/hashmix"
	"repro/internal/merkle"
)

// RangeRequest asks a mirror for the contiguous leaf range
// [LeafLo, LeafHi) of the committed array. Peer and Ordinal identify
// the logical query so seeded Byzantine decisions (selective serving)
// are reproducible regardless of scheduling.
type RangeRequest struct {
	Peer    int
	Ordinal uint64
	LeafLo  int
	LeafHi  int
}

// RangeReply is a proof-carrying mirror reply: the span bits of the
// requested leaves plus the sibling path authenticating them against
// the mirror's claimed root. Nothing in it is trusted — the recipient
// verifies against the authoritative root before using a single bit.
type RangeReply struct {
	Root    [merkle.HashBytes]byte
	LeafLo  int
	LeafHi  int
	Bits    *bitarray.Array
	Proof   merkle.Proof
	Refused bool // selective mirror declined to serve this request
}

// Mirror is one untrusted cache of X: it answers leaf-range requests
// with proof-carrying replies. Implementations must be safe for
// concurrent use (netrt's hub serves from multiple connections).
type Mirror interface {
	// ID returns the mirror's fleet index.
	ID() int
	// Serve answers a leaf-range request, honestly or otherwise.
	Serve(req RangeRequest) RangeReply
}

// Seeded-decision tags for mirror rolls (same discipline as the fault
// plans: one tag per independent decision kind).
const (
	rollMirrorPick uint64 = iota + 100
	rollSelective
	rollWrongBit
	rollForgeHash
)

// honestMirror serves correct bits under correct proofs.
type honestMirror struct {
	id   int
	tree *merkle.Tree
	x    *bitarray.Array
}

func (m *honestMirror) ID() int { return m.id }

func (m *honestMirror) Serve(req RangeRequest) RangeReply {
	p := m.tree.Params()
	return RangeReply{
		Root:   m.tree.Root(),
		LeafLo: req.LeafLo, LeafHi: req.LeafHi,
		Bits:  m.x.Slice(req.LeafLo*p.LeafBits, p.SpanBits(req.LeafLo, req.LeafHi)),
		Proof: m.tree.Prove(req.LeafLo, req.LeafHi),
	}
}

// byzMirror wraps the honest serve path with one concrete misbehavior.
// Every corruption is a pure function of (seed, mirror, peer, ordinal),
// so runs with equal plans misbehave identically.
type byzMirror struct {
	honestMirror
	behavior string
	seed     int64
	// stale, for BehaviorStale: a consistent commitment to an outdated
	// snapshot of the array (shared across the fleet's stale mirrors).
	stale  *merkle.Tree
	staleX *bitarray.Array
}

func (m *byzMirror) roll(tag uint64, req RangeRequest) uint64 {
	return hashmix.Mix64(uint64(m.seed), tag, uint64(int64(m.id)),
		uint64(int64(req.Peer)), req.Ordinal)
}

func (m *byzMirror) Serve(req RangeRequest) RangeReply {
	switch m.behavior {
	case BehaviorSelective:
		if hashmix.Unit(m.roll(rollSelective, req)) < 0.5 {
			return RangeReply{Refused: true}
		}
		return m.honestMirror.Serve(req)
	case BehaviorStale:
		p := m.stale.Params()
		return RangeReply{
			Root:   m.stale.Root(),
			LeafLo: req.LeafLo, LeafHi: req.LeafHi,
			Bits:  m.staleX.Slice(req.LeafLo*p.LeafBits, p.SpanBits(req.LeafLo, req.LeafHi)),
			Proof: m.stale.Prove(req.LeafLo, req.LeafHi),
		}
	}
	rep := m.honestMirror.Serve(req)
	switch m.behavior {
	case BehaviorWrong:
		m.flipBit(&rep, req)
	case BehaviorForge:
		m.flipBit(&rep, req)
		for i := range rep.Proof.Hashes {
			h := hashmix.Mix64(uint64(m.seed), rollForgeHash, uint64(int64(m.id)), req.Ordinal, uint64(i))
			for b := 0; b < merkle.HashBytes; b++ {
				rep.Proof.Hashes[i][b] = byte(h >> (8 * (b % 8)))
			}
		}
	case BehaviorTruncate:
		if n := len(rep.Proof.Hashes); n > 0 {
			rep.Proof.Hashes = rep.Proof.Hashes[:n-1]
		} else {
			m.flipBit(&rep, req) // full-tree range: no path to drop
		}
	case BehaviorReorder:
		if n := len(rep.Proof.Hashes); n >= 2 && rep.Proof.Hashes[0] != rep.Proof.Hashes[1] {
			rep.Proof.Hashes[0], rep.Proof.Hashes[1] = rep.Proof.Hashes[1], rep.Proof.Hashes[0]
		} else {
			m.flipBit(&rep, req)
		}
	}
	return rep
}

func (m *byzMirror) flipBit(rep *RangeReply, req RangeRequest) {
	if rep.Bits.Len() == 0 {
		return
	}
	bit := int(m.roll(rollWrongBit, req) % uint64(rep.Bits.Len()))
	rep.Bits.Set(bit, !rep.Bits.Get(bit))
}

// mixedBehaviors is the cycle BehaviorMixed assigns by mirror index.
var mixedBehaviors = []string{
	BehaviorForge, BehaviorWrong, BehaviorTruncate,
	BehaviorStale, BehaviorReorder, BehaviorSelective,
}

// MirrorStats counts one peer's traffic through the mirror tier.
type MirrorStats struct {
	// MirrorHits counts queries fully answered by a verified mirror
	// reply.
	MirrorHits int
	// ProofFailures counts mirror replies that failed verification
	// (wrong bits, forged/mangled proofs, stale roots).
	ProofFailures int
	// FallbackQueries counts queries re-issued to the authoritative
	// source after a refusal or verification failure.
	FallbackQueries int
}

func (s *MirrorStats) add(o MirrorStats) {
	s.MirrorHits += o.MirrorHits
	s.ProofFailures += o.ProofFailures
	s.FallbackQueries += o.FallbackQueries
}

// Mirrored routes queries through an untrusted mirror fleet with
// verified fallback: pick a seeded mirror, request the covering leaf
// range, verify the proof-carrying reply against the authoritative
// root, and serve the requested indices from the verified span — or
// fall back to the inner (authoritative) source when the mirror
// refuses or its proof fails. Every bit it returns is verified, so the
// runtimes charge exactly the bits they always charged; garbage from
// Byzantine mirrors costs nothing but a fallback round.
//
// It implements Source, so the runtimes drop it in front of the
// authoritative tier (which may itself be fault-wrapped).
type Mirrored struct {
	plan    *MirrorPlan
	inner   Source
	tree    *merkle.Tree
	root    [merkle.HashBytes]byte
	mirrors []Mirror

	mu    sync.Mutex
	peers []MirrorStats
}

// NewMirrored builds the fleet over input for n peers. inner is the
// authoritative fallback (typically Wrap(NewTrusted(input), faultPlan)).
// The plan must be enabled and valid.
func NewMirrored(input *bitarray.Array, plan *MirrorPlan, n int, inner Source) *Mirrored {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if !plan.Enabled() {
		panic("source: NewMirrored with disabled plan")
	}
	tree := merkle.Build(input, plan.EffectiveLeafBits())
	m := &Mirrored{
		plan:  plan,
		inner: inner,
		tree:  tree,
		root:  tree.Root(),
		peers: make([]MirrorStats, n),
	}
	var stale *merkle.Tree
	var staleX *bitarray.Array
	needStale := func(b string) bool { return b == BehaviorStale || b == BehaviorMixed }
	if plan.Byz > 0 && needStale(plan.EffectiveBehavior()) {
		// The stale snapshot differs from X in its first bit: a fully
		// consistent, fully wrong commitment.
		staleX = input.Clone()
		staleX.Set(0, !staleX.Get(0))
		stale = merkle.Build(staleX, plan.EffectiveLeafBits())
	}
	for i := 0; i < plan.Mirrors; i++ {
		h := honestMirror{id: i, tree: tree, x: input}
		if i >= plan.Byz {
			m.mirrors = append(m.mirrors, &h)
			continue
		}
		b := plan.EffectiveBehavior()
		if b == BehaviorMixed {
			b = mixedBehaviors[i%len(mixedBehaviors)]
		}
		m.mirrors = append(m.mirrors, &byzMirror{
			honestMirror: h, behavior: b, seed: plan.Seed,
			stale: stale, staleX: staleX,
		})
	}
	return m
}

// Root returns the authoritative commitment.
func (m *Mirrored) Root() [merkle.HashBytes]byte { return m.root }

// Params returns the commitment shape.
func (m *Mirrored) Params() merkle.Params { return m.tree.Params() }

// Tree exposes the authoritative tree (the hardened audit walks it).
func (m *Mirrored) Tree() *merkle.Tree { return m.tree }

// Pick selects the mirror for one logical query, seeded by
// (plan seed, peer, ordinal) so retries and runtimes agree.
func (m *Mirrored) Pick(peer int, ordinal uint64) int {
	return int(hashmix.Mix64(uint64(m.plan.Seed), rollMirrorPick,
		uint64(int64(peer)), ordinal) % uint64(len(m.mirrors)))
}

// ServeMirror runs the pick + serve half without verification — the
// netrt hub uses it to put the (possibly Byzantine) proof-carrying
// reply on the wire for the client to verify.
func (m *Mirrored) ServeMirror(req RangeRequest) RangeReply {
	return m.mirrors[m.Pick(req.Peer, req.Ordinal)].Serve(req)
}

// Fetch implements Source: the full mirror-first, verified-fallback
// flow with per-peer accounting.
func (m *Mirrored) Fetch(req Request) (Reply, error) {
	if len(req.Indices) == 0 {
		return m.inner.Fetch(req)
	}
	lo, hi := req.Indices[0], req.Indices[0]
	for _, idx := range req.Indices[1:] {
		if idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
	}
	p := m.tree.Params()
	leafLo, leafHi := p.LeafSpan(lo, hi)
	rep := m.ServeMirror(RangeRequest{Peer: req.Peer, Ordinal: req.Ordinal, LeafLo: leafLo, LeafHi: leafHi})
	if !rep.Refused && merkle.Verify(m.root, p, leafLo, leafHi, rep.Bits, rep.Proof) {
		// The verified span covers [lo, hi] by construction of LeafSpan; a
		// span that somehow does not is a mirror failure like any other.
		if bits, ok := rep.Bits.GatherFrom(req.Indices, leafLo*p.LeafBits); ok {
			m.record(req.Peer, MirrorStats{MirrorHits: 1})
			return Reply{Bits: bits}, nil
		}
	}
	st := MirrorStats{FallbackQueries: 1}
	if !rep.Refused {
		st.ProofFailures = 1
	}
	m.record(req.Peer, st)
	return m.inner.Fetch(req)
}

func (m *Mirrored) record(peer int, st MirrorStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if peer >= 0 && peer < len(m.peers) {
		m.peers[peer].add(st)
	}
}

// PeerStats returns one peer's accumulated mirror counters.
func (m *Mirrored) PeerStats(peer int) MirrorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if peer < 0 || peer >= len(m.peers) {
		return MirrorStats{}
	}
	return m.peers[peer]
}
