package conformance

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"repro/download"
	"repro/internal/protocols"
)

var update = flag.Bool("update", false, "regenerate the fixture corpus (refuses semantic drift without a CorpusVersion bump)")

const fixturesDir = "fixtures"

// TestCorpus is the des column of the conformance tier: every committed
// case re-executed on the deterministic runtime and diffed field by
// field, plus the frame and replay integrity checks. With -update it
// regenerates the corpus instead (see gen.go for the drift refusal).
func TestCorpus(t *testing.T) {
	if *update {
		if err := Generate(fixturesDir); err != nil {
			t.Fatalf("regenerate: %v", err)
		}
		t.Log("rewrote fixture corpus")
		return
	}
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatalf("load corpus (regenerate with -update): %v", err)
	}
	rep := RunFixtures(corpus, Config{Runtimes: []Runtime{DES}})
	if rep.Failed() {
		var b strings.Builder
		rep.WriteMatrix(&b)
		t.Fatalf("des fixture conformance failed:\n%s", b.String())
	}
}

// corpusOnTCP runs the pinned cases keep selects on the real-socket
// runtime (des runs the full corpus in TestCorpus). The corpus must hold
// at least one such case, or the gate would pass on nothing.
func corpusOnTCP(t *testing.T, rows string, keep func(*Case) bool) {
	t.Helper()
	if *update {
		t.Skip("regeneration runs in TestCorpus")
	}
	if testing.Short() {
		t.Skip("socket runtime corpus in -short mode")
	}
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatalf("load corpus (regenerate with -update): %v", err)
	}
	if !slices.ContainsFunc(corpus.Results.Cases, func(c Case) bool { return keep(&c) }) {
		t.Fatalf("corpus has no %s cases (regenerate with -update)", rows)
	}
	rep := RunFixtures(corpus, Config{Runtimes: []Runtime{TCP}, Filter: keep})
	if rep.Failed() {
		var b strings.Builder
		rep.WriteMatrix(&b)
		t.Fatalf("%s rows failed tcp conformance:\n%s", rows, b.String())
	}
}

// TestCorpusMirrors is the tcp half of the mirror-row acceptance gate:
// every pinned mirror case — honest fleet and Byzantine-majority fleet —
// must conform over real sockets too, which exercises the
// ROOT/QPROOF/QUERYSRC frames end to end.
func TestCorpusMirrors(t *testing.T) {
	corpusOnTCP(t, "mirror", func(c *Case) bool { return c.Mirrors != "" })
}

// TestCorpusChurn is the tcp half of the crash-recovery acceptance gate:
// every pinned churn case must conform over real sockets. The cells
// exercise the full recovery machinery end to end — the peer process
// crashes at its action count, the rejoined incarnation restores from
// the durable checkpoint store and resumes over the RESUME handshake —
// and must still pin the runtime-invariant fields (correctness, output
// bits, rejoin count).
func TestCorpusChurn(t *testing.T) {
	corpusOnTCP(t, "churn", func(c *Case) bool { return c.Churn != "" })
}

// TestCorpusByzantine runs every Byzantine and crash-random row over real
// sockets: the faulty peers run their behavior on their own clients, so
// forged reports, scattered lies and junk cross the wire, and random
// crash points arrive as churn crashes that never rejoin. Every honest
// peer must output X, pinned by correctness and the output bits.
func TestCorpusByzantine(t *testing.T) {
	corpusOnTCP(t, "Byzantine or crash-random", func(c *Case) bool {
		switch download.FaultBehavior(c.Behavior) {
		case download.CrashRandom, download.Silent, download.Spam, download.Liar, download.Equivocate:
			return true
		}
		return false
	})
}

// TestCorpusCoversAllProtocols guards the grid enumeration: a protocol
// added to the registry without fixture coverage must fail here, not
// silently skip conformance.
func TestCorpusCoversAllProtocols(t *testing.T) {
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, c := range corpus.Results.Cases {
		covered[c.Protocol] = true
	}
	for _, info := range download.Protocols() {
		if !covered[string(info.Protocol)] {
			t.Errorf("protocol %s has no fixture cases (regenerate with -update)", info.Protocol)
		}
	}
}

// TestNegativeControl perturbs committed fixtures and requires the
// runner to fail with a field-level diff: a conformance gate that
// cannot detect a wrong fixture detects nothing.
func TestNegativeControl(t *testing.T) {
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatal(err)
	}
	target := corpus.Results.Cases[0].Name

	t.Run("perturbed-q", func(t *testing.T) {
		corrupted := *corpus
		corrupted.Results.Cases = append([]Case(nil), corpus.Results.Cases...)
		corrupted.Results.Cases[0].Expect.Q += 7
		rep := RunFixtures(&corrupted, Config{
			Runtimes: []Runtime{DES},
			Filter:   func(c *Case) bool { return c.Name == target },
		})
		if !rep.Failed() {
			t.Fatal("perturbed fixture passed conformance")
		}
		var found bool
		for _, o := range rep.Outcomes {
			for _, d := range o.Diffs {
				if d.Field == "q" {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("no field-level q diff reported: %+v", rep.Outcomes)
		}
	})

	t.Run("perturbed-output", func(t *testing.T) {
		corrupted := *corpus
		corrupted.Results.Cases = append([]Case(nil), corpus.Results.Cases...)
		corrupted.Results.Cases[0].Expect.OutputFNV = "0000000000000000"
		rep := RunFixtures(&corrupted, Config{
			Runtimes: []Runtime{DES},
			Filter:   func(c *Case) bool { return c.Name == target },
		})
		if !rep.Failed() {
			t.Fatal("perturbed output hash passed conformance")
		}
	})

	t.Run("perturbed-frame", func(t *testing.T) {
		frames := Frames{Version: CorpusVersion, Frames: append([]Frame(nil), corpus.Frames.Frames...)}
		// Flip the tag byte to an unknown value: decode must fail.
		frames.Frames[0].Hex = "ff" + frames.Frames[0].Hex[2:]
		if errs := VerifyFrames(&frames); len(errs) == 0 {
			t.Fatal("perturbed frame verified")
		}
	})

	t.Run("perturbed-netrt-frame", func(t *testing.T) {
		frames := Frames{Version: CorpusVersion, Frames: append([]Frame(nil), corpus.Frames.Frames...)}
		idx := -1
		for i, f := range frames.Frames {
			if f.Codec == "netrt" && f.Name == "netrt-qproof" {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatal("no pinned netrt-qproof frame (regenerate with -update)")
		}
		// Truncate the final proof hash: the strict decoder must reject.
		f := frames.Frames[idx]
		f.Hex = f.Hex[:len(f.Hex)-2]
		frames.Frames[idx] = f
		if errs := VerifyFrames(&frames); len(errs) == 0 {
			t.Fatal("truncated netrt proof frame verified")
		}
	})

	t.Run("perturbed-replay-hash", func(t *testing.T) {
		replays := Replays{Version: CorpusVersion, Replays: append([]ReplayRef(nil), corpus.Replays.Replays...)}
		replays.Replays[0].SHA256 = strings.Repeat("0", 64)
		if errs := VerifyReplays(corpus.Dir, &replays); len(errs) == 0 {
			t.Fatal("perturbed replay hash verified")
		}
	})
}

// TestEnvelopeViolationDetected pins the envelope checker itself: a
// report past the Q bound must be flagged.
func TestEnvelopeViolationDetected(t *testing.T) {
	v := protocols.CheckEnvelope("naive", 8, 4, 256, 64, 1<<30, 1<<30)
	if len(v) != 2 {
		t.Fatalf("want Q and msgs violations, got %v", v)
	}
	if v := protocols.CheckEnvelope("naive", 8, 4, 256, 64, 256, 0); len(v) != 0 {
		t.Fatalf("clean report flagged: %v", v)
	}
	if v := protocols.CheckEnvelope("unknown", 8, 4, 256, 64, 1<<30, 1<<30); v != nil {
		t.Fatalf("unregistered protocol flagged: %v", v)
	}
}

// TestDriftRefusal pins the -update semantics: under an unchanged
// CorpusVersion, changed or removed expectations refuse regeneration;
// added cases are corpus growth and pass.
func TestDriftRefusal(t *testing.T) {
	base := &Corpus{
		Results: Results{Version: CorpusVersion, Cases: []Case{
			{Name: "a", Expect: Expect{Q: 1}},
			{Name: "b", Expect: Expect{Q: 2}},
		}},
		Frames:  Frames{Version: CorpusVersion, Frames: []Frame{{Name: "f", L: 64, Hex: "0a"}}},
		Replays: Replays{Version: CorpusVersion, Replays: []ReplayRef{{File: "r.dsr", SHA256: "aa"}}},
	}
	clone := func() *Corpus {
		c := *base
		c.Results.Cases = append([]Case(nil), base.Results.Cases...)
		c.Frames.Frames = append([]Frame(nil), base.Frames.Frames...)
		c.Replays.Replays = append([]ReplayRef(nil), base.Replays.Replays...)
		return &c
	}

	if err := checkDrift(base, clone()); err != nil {
		t.Fatalf("identical corpus reported drift: %v", err)
	}

	grown := clone()
	grown.Results.Cases = append(grown.Results.Cases, Case{Name: "c", Expect: Expect{Q: 3}})
	if err := checkDrift(base, grown); err != nil {
		t.Fatalf("corpus growth reported drift: %v", err)
	}

	changed := clone()
	changed.Results.Cases[0].Expect.Q = 99
	err := checkDrift(base, changed)
	if err == nil {
		t.Fatal("changed expectation not reported as drift")
	}
	if !strings.Contains(err.Error(), "case a") || !strings.Contains(err.Error(), "bump CorpusVersion") {
		t.Fatalf("unhelpful drift error: %v", err)
	}

	removed := clone()
	removed.Results.Cases = removed.Results.Cases[1:]
	if checkDrift(base, removed) == nil {
		t.Fatal("removed case not reported as drift")
	}

	reframe := clone()
	reframe.Frames.Frames[0].Hex = "0b"
	if checkDrift(base, reframe) == nil {
		t.Fatal("changed frame encoding not reported as drift")
	}

	rehash := clone()
	rehash.Replays.Replays[0].SHA256 = "bb"
	if checkDrift(base, rehash) == nil {
		t.Fatal("changed replay bytes not reported as drift")
	}
}
