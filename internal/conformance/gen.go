package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/download"
	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/dst"
	"repro/internal/intset"
	"repro/internal/merkle"
	"repro/internal/netrt"
	"repro/internal/protocols"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/wire"
)

// BehaviorsFor returns the fault behaviors meaningful for a protocol's
// fault model, plus the failure-free baseline. Shared by the drconform
// sweep and the fixture generator so both cover the same behavior space.
func BehaviorsFor(info download.Info) []download.FaultBehavior {
	switch info.FaultModel {
	case "crash":
		return []download.FaultBehavior{
			download.NoFaults, download.CrashImmediate, download.CrashRandom,
		}
	case "byzantine":
		return []download.FaultBehavior{
			download.NoFaults, download.CrashRandom, download.Silent,
			download.Spam, download.Liar, download.Equivocate,
		}
	default: // "any"
		return []download.FaultBehavior{
			download.NoFaults, download.CrashImmediate, download.Silent,
			download.Spam, download.Liar,
		}
	}
}

// FaultBound picks the maximal T the protocol's resilience permits: its
// row's fixed bound, if it has one, or else its fault model's.
func FaultBound(info download.Info, n int) int {
	if row, err := protocols.Lookup(string(info.Protocol)); err == nil && row.MaxT > 0 {
		return row.MaxT
	}
	switch info.FaultModel {
	case "crash":
		return 3 * n / 4
	case "byzantine":
		return n/2 - 1
	default:
		return n / 2
	}
}

// gridShape is one (N, L) point of the committed fixture grid.
type gridShape struct{ n, l int }

var (
	gridShapes = []gridShape{{6, 256}, {10, 640}}
	gridSeeds  = []int64{1, 2}
	// The per-protocol mirror plans: an all-honest fleet (every query
	// should verify against the commitment) and a Byzantine-majority
	// fleet cycling the concrete misbehaviors (forged, truncated,
	// reordered proofs; wrong bits; stale snapshots) — fault-free cells
	// that run on every runtime column, pinning that Byzantine mirrors
	// cost fallbacks, never bits or correctness.
	honestMirrorPlan = "mirrors=4,leaf=32,seed=5"
	byzMirrorPlan    = "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=5"
)

func derivedMsgBits(n, l int) int {
	b := l / n
	if b < 64 {
		b = 64
	}
	return b
}

func behaviorSlug(b download.FaultBehavior) string {
	if b == download.NoFaults {
		return "none"
	}
	return string(b)
}

// FlakyPlan is the seeded source fault plan of the per-protocol
// flaky-source cases (virtual time units; des-only cells) and the
// default plan of drconform's SRC column.
const FlakyPlan = "fail=0.2,timeout=0.1,outage=1..3,seed=11"

// behaviorCases enumerates one protocol's behaviors × seeds at one
// (n, L), with T at the protocol's FaultBound.
func behaviorCases(info download.Info, n, l int, seeds []int64) []Case {
	var cases []Case
	t := FaultBound(info, n)
	for _, behavior := range BehaviorsFor(info) {
		for _, seed := range seeds {
			cases = append(cases, Case{
				Name: fmt.Sprintf("%s/n%dt%d/%s/s%d",
					info.Protocol, n, t, behaviorSlug(behavior), seed),
				Protocol: string(info.Protocol),
				N:        n, T: t, L: l,
				MsgBits:  derivedMsgBits(n, l),
				Seed:     seed,
				Behavior: string(behavior),
			})
		}
	}
	return cases
}

// SweepCases is drconform's sweep: every protocol × BehaviorsFor × seeds
// 0…seeds−1 at one (n, L). Its cases are unpinned (see Case.Pinned): each
// expects a correct run, within the protocol's envelope.
func SweepCases(n, l, seeds int) []Case {
	list := make([]int64, seeds)
	for i := range list {
		list[i] = int64(i)
	}
	var cases []Case
	for _, info := range download.Protocols() {
		cases = append(cases, behaviorCases(info, n, l, list)...)
	}
	for i := range cases {
		cases[i].Expect.Correct = true
	}
	return cases
}

// gridCases enumerates the corpus grid without expectations.
func gridCases() []Case {
	var cases []Case
	for _, info := range download.Protocols() {
		for _, shape := range gridShapes {
			cases = append(cases, behaviorCases(info, shape.n, shape.l, gridSeeds)...)
		}
		// One flaky-source cell per protocol: fault-free peers against a
		// failing source, pinning the retry/breaker counter stream.
		shape := gridShapes[0]
		t := FaultBound(info, shape.n)
		cases = append(cases, Case{
			Name:     fmt.Sprintf("%s/n%dt%d/flaky-source/s3", info.Protocol, shape.n, t),
			Protocol: string(info.Protocol),
			N:        shape.n, T: t, L: shape.l,
			MsgBits:      derivedMsgBits(shape.n, shape.l),
			Seed:         3,
			SourceFaults: FlakyPlan,
		})
		// Two mirror cells per protocol: queries routed through an
		// untrusted mirror fleet, honest and Byzantine-majority. Both
		// are fault-free (mirrors cost fallbacks, not bits), so every
		// runtime column runs them and the Q pin holds wherever the
		// protocol's query pattern is schedule-invariant.
		for _, mp := range []struct{ slug, plan string }{
			{"mirrors-honest", honestMirrorPlan},
			{"mirrors-byzmajority", byzMirrorPlan},
		} {
			cases = append(cases, Case{
				Name:     fmt.Sprintf("%s/n%dt%d/%s/s5", info.Protocol, shape.n, t, mp.slug),
				Protocol: string(info.Protocol),
				N:        shape.n, T: t, L: shape.l,
				MsgBits: derivedMsgBits(shape.n, shape.l),
				Seed:    5,
				Mirrors: mp.plan,
			})
		}
	}
	// Two crash-recovery churn cells on the naive protocol (the one
	// protocol whose peers are schedule-independent, so the rejoin count
	// pins identically on every runtime column — including the socket
	// runtime, where the rejoined incarnation restarts from a durable
	// checkpoint): one peer that crashes at its first reply and rejoins,
	// and one that crashes for good.
	shape := gridShapes[0]
	for _, cc := range []struct{ slug, churn string }{
		{"churn-rejoin", "0:2:1"},
		{"churn-crash", "2:2:-1"},
	} {
		cases = append(cases, Case{
			Name:     fmt.Sprintf("naive/n%dt%d/%s/s9", shape.n, shape.n/2, cc.slug),
			Protocol: string(download.Naive),
			N:        shape.n, T: shape.n / 2, L: shape.l,
			MsgBits: derivedMsgBits(shape.n, shape.l),
			Seed:    9,
			Churn:   cc.churn,
		})
	}
	return cases
}

// generateResults runs the grid on the des runtime and fills in the
// expectations. Generation fails on an incorrect run or an envelope
// violation: the committed corpus must be green by construction.
func generateResults() (*Results, error) {
	cases := gridCases()
	for i := range cases {
		c := &cases[i]
		opts, err := c.options()
		if err != nil {
			return nil, fmt.Errorf("conformance: generate %s: %w", c.Name, err)
		}
		rep, err := download.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("conformance: generate %s: %w", c.Name, err)
		}
		if !rep.Correct {
			return nil, fmt.Errorf("conformance: generate %s: incorrect run: %v", c.Name, rep.Failures)
		}
		if c.Mirrors != "" && rep.MirrorHits+rep.FallbackQueries == 0 {
			// A mirror cell whose fleet never served or failed a single
			// query pins nothing; the plan seed needs retuning.
			return nil, fmt.Errorf("conformance: generate %s: degenerate mirror cell (no fleet traffic)", c.Name)
		}
		for _, cp := range opts.Churn {
			if cp.Downtime >= 0 && rep.Rejoins == 0 {
				// A rejoin cell where nothing rejoined pins nothing; the
				// crash point never fired.
				return nil, fmt.Errorf("conformance: generate %s: degenerate churn cell (no rejoin)", c.Name)
			}
		}
		if v := protocols.CheckEnvelope(c.Protocol, c.N, c.T, c.L, c.MsgBits, rep.Q, rep.Msgs); len(v) > 0 {
			return nil, fmt.Errorf("conformance: generate %s: %s (tighten the run or widen the documented envelope)",
				c.Name, strings.Join(v, "; "))
		}
		c.Expect = expectOf(rep)
	}
	return &Results{Version: CorpusVersion, Cases: cases}, nil
}

// generateFrames encodes one representative message per wire tag with
// fixed seeded contents. The resulting bytes pin the wire format: a
// codec change that alters any encoding must bump CorpusVersion.
func generateFrames() (*Frames, error) {
	const frameL = 4096
	rng := rand.New(rand.NewSource(7))
	idxBits := segproto.IndexBits(frameL)
	set := intset.FromSorted([]int{1, 2, 3, 100, 200, 201})
	bits := func(n int) *bitarray.Array { return bitarray.Random(rng, n) }

	msgs := []struct {
		name string
		msg  sim.Message
	}{
		{"crashk-req1", &crashk.Req1{Phase: 3, Indices: set, IdxBits: idxBits}},
		{"crashk-resp1", &crashk.Resp1{Phase: 3, Indices: set, Values: bits(set.Len()), IdxBits: idxBits}},
		{"crashk-req2", &crashk.Req2{Phase: 2, IdxBits: idxBits, Items: []crashk.Req2Item{
			{Q: 5, Indices: intset.Hold(intset.FromRange(0, 64))},
			{Q: 9, Indices: intset.Hold(intset.FromSorted([]int{7, 9}))},
		}}},
		{"crashk-resp2", &crashk.Resp2{Phase: 2, IdxBits: idxBits, MeNeither: intset.FromRange(5, 6), Items: []crashk.Resp2Item{
			{Q: 9, Indices: intset.FromSorted([]int{7, 9}), Values: bits(2)},
		}}},
		{"crashk-full", &crashk.Full{Values: bits(frameL)}},
		{"crash1-push", &crash1.Push{Phase: 1, Indices: intset.FromRange(64, 128), Values: bits(64), IdxBits: idxBits}},
		{"crash1-who", &crash1.WhoIsMissing{Phase: 1, Missing: 7}},
		{"crash1-reply-meneither", &crash1.MissingReply{Phase: 1, About: 7, MeNeither: true}},
		{"crash1-reply-values", &crash1.MissingReply{Phase: 2, About: 3, Indices: intset.FromRange(0, 10), Values: bits(10), IdxBits: idxBits}},
		{"committee-report", &committee.Report{Indices: []int{0, 5, 17, 4000}, Bits: bits(4), IdxBits: idxBits}},
		{"segproto-segvalue", &segproto.SegValue{Cycle: 2, Seg: 1, Values: bits(512), IdxBits: idxBits}},
		{"adversary-junk", &adversary.Junk{Bits: 777}},
	}
	out := &Frames{Version: CorpusVersion}
	for _, m := range msgs {
		raw, err := wire.Marshal(m.msg)
		if err != nil {
			return nil, fmt.Errorf("conformance: encode frame %s: %w", m.name, err)
		}
		out.Frames = append(out.Frames, Frame{Name: m.name, L: frameL, Hex: hex.EncodeToString(raw)})
	}

	// The mirror-tier socket frames (netrt codec): a ROOT commitment
	// push, a proof-carrying QPROOF reply over a seeded committed array,
	// a refused QPROOF, and the QUERYSRC verified fallback, once with a
	// list of steps and once with a run and a repeat. Pinned as
	// full frames (length header included) so framing drift fails too.
	mrng := rand.New(rand.NewSource(21))
	mx := bitarray.Random(mrng, frameL)
	tree := merkle.Build(mx, 64)
	p := tree.Params()
	leafLo, leafHi := 3, 7
	rep := source.RangeReply{
		Root:   tree.Root(),
		LeafLo: leafLo, LeafHi: leafHi,
		Bits:  mx.Slice(leafLo*p.LeafBits, p.SpanBits(leafLo, leafHi)),
		Proof: tree.Prove(leafLo, leafHi),
	}
	qIdx := []int{200, 201, 300, 420}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"netrt-root", netrt.MarshalRootFrame(tree.Root())},
		{"netrt-qproof", netrt.MarshalProofFrame(9, 2, qIdx, rep)},
		{"netrt-qproof-refused", netrt.MarshalProofFrame(10, 2, qIdx, source.RangeReply{Refused: true})},
		{"netrt-querysrc", netrt.MarshalQuerySrcFrame(11, 2, qIdx)},
		{"netrt-querysrc-runs", netrt.MarshalQuerySrcFrame(12, 3, []int{64, 65, 66, 67, 68, 68, 90, 91})},
	} {
		out.Frames = append(out.Frames, Frame{
			Name: f.name, L: frameL, Hex: hex.EncodeToString(f.data), Codec: "netrt",
		})
	}
	return out, nil
}

// replayDir is where the dst replay regression corpus lives, relative
// to the fixture directory.
const replayDir = "../../dst/testdata/replays"

// generateReplays hashes every committed .dsr replay into a pinned
// reference.
func generateReplays(dir string) (*Replays, error) {
	entries, err := os.ReadDir(filepath.Join(dir, replayDir))
	if err != nil {
		return nil, fmt.Errorf("conformance: replay corpus: %w", err)
	}
	out := &Replays{Version: CorpusVersion}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".dsr") {
			continue
		}
		rel := filepath.ToSlash(filepath.Join(replayDir, e.Name()))
		data, err := os.ReadFile(filepath.Join(dir, replayDir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := dst.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("conformance: replay %s: %w", e.Name(), err)
		}
		sum := sha256.Sum256(data)
		out.Replays = append(out.Replays, ReplayRef{
			File:      rel,
			SHA256:    hex.EncodeToString(sum[:]),
			Expect:    r.Expect,
			EventHash: r.EventHash,
		})
	}
	sort.Slice(out.Replays, func(i, j int) bool { return out.Replays[i].File < out.Replays[j].File })
	if len(out.Replays) == 0 {
		return nil, fmt.Errorf("conformance: no .dsr replays under %s", replayDir)
	}
	return out, nil
}

// DriftError reports that regeneration would change the meaning of
// already-committed fixtures while CorpusVersion is unchanged. The
// -update path refuses to write in that situation: semantic drift must
// be owned by bumping CorpusVersion first, which makes the change —
// and every fixture it invalidates — explicit in review.
type DriftError struct{ Drifts []string }

func (e *DriftError) Error() string {
	return fmt.Sprintf("conformance: refusing to overwrite fixtures: %d semantic drift(s) under unchanged CorpusVersion %d (bump CorpusVersion and re-run -update to accept):\n  %s",
		len(e.Drifts), CorpusVersion, strings.Join(e.Drifts, "\n  "))
}

// checkDrift compares freshly generated fixtures against the committed
// corpus. Added cases are corpus growth and always fine; changed or
// removed expectations are drift.
func checkDrift(old, fresh *Corpus) *DriftError {
	var drifts []string
	oldCases := make(map[string]Expect, len(old.Results.Cases))
	for _, c := range old.Results.Cases {
		oldCases[c.Name] = c.Expect
	}
	freshCases := make(map[string]Expect, len(fresh.Results.Cases))
	for _, c := range fresh.Results.Cases {
		freshCases[c.Name] = c.Expect
	}
	for _, c := range old.Results.Cases {
		got, ok := freshCases[c.Name]
		switch {
		case !ok:
			drifts = append(drifts, fmt.Sprintf("case %s: removed from grid", c.Name))
		case got != c.Expect:
			drifts = append(drifts, fmt.Sprintf("case %s: expectation changed:\n    old %+v\n    new %+v", c.Name, c.Expect, got))
		}
	}
	oldFrames := make(map[string]Frame, len(old.Frames.Frames))
	for _, f := range old.Frames.Frames {
		oldFrames[f.Name] = f
	}
	freshFrames := make(map[string]Frame, len(fresh.Frames.Frames))
	for _, f := range fresh.Frames.Frames {
		freshFrames[f.Name] = f
	}
	for name, f := range oldFrames {
		got, ok := freshFrames[name]
		switch {
		case !ok:
			drifts = append(drifts, fmt.Sprintf("frame %s: removed", name))
		case got != f:
			drifts = append(drifts, fmt.Sprintf("frame %s: encoding changed", name))
		}
	}
	oldReplays := make(map[string]ReplayRef, len(old.Replays.Replays))
	for _, r := range old.Replays.Replays {
		oldReplays[r.File] = r
	}
	for _, r := range old.Replays.Replays {
		got, ok := func() (ReplayRef, bool) {
			for _, f := range fresh.Replays.Replays {
				if f.File == r.File {
					return f, true
				}
			}
			return ReplayRef{}, false
		}()
		switch {
		case !ok:
			drifts = append(drifts, fmt.Sprintf("replay %s: removed", r.File))
		case got != r:
			drifts = append(drifts, fmt.Sprintf("replay %s: bytes or pinned outcome changed", r.File))
		}
	}
	if len(drifts) == 0 {
		return nil
	}
	return &DriftError{Drifts: drifts}
}

// Generate regenerates the fixture corpus in dir. When a corpus of the
// current CorpusVersion is already committed there, regeneration that
// would change its meaning fails with a *DriftError instead of writing;
// a committed corpus of a different (older) version is replaced
// wholesale, which is exactly what a version bump means.
func Generate(dir string) error {
	results, err := generateResults()
	if err != nil {
		return err
	}
	frames, err := generateFrames()
	if err != nil {
		return err
	}
	replays, err := generateReplays(dir)
	if err != nil {
		return err
	}
	fresh := &Corpus{Dir: dir, Results: *results, Frames: *frames, Replays: *replays}
	if old, err := Load(dir); err == nil {
		// Load succeeds only on a complete corpus of the current
		// version; anything else (missing files, older version) is a
		// legitimate full rewrite.
		if derr := checkDrift(old, fresh); derr != nil {
			return derr
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{
		ResultsFile: results,
		FramesFile:  frames,
		ReplaysFile: replays,
	} {
		data, err := marshalCanonical(v)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
