// Package conformance pins the cross-runtime protocol contract: a
// versioned golden fixture corpus (result vectors, encoded wire frames,
// and references into the dst replay corpus) plus a runner that executes
// every protocol on every runtime against it and diffs the outcomes
// field by field.
//
// The canonical contract itself is prose — docs/SPEC.md — and this
// package is its executable half. Any new runtime (the planned
// state-machine peer core included) must produce the committed result
// vectors before it can claim to implement the protocols; any change to
// the wire format must reproduce the committed frame bytes; and any
// deliberate semantic change must bump CorpusVersion, because the
// regeneration path refuses to overwrite fixtures whose meaning drifted
// under an unchanged version (see gen.go).
//
// Layout of the corpus (internal/conformance/fixtures/):
//
//	results.json — per-case expected result vectors over a seeded grid
//	               of (protocol, N, t, behavior, seed, source plan)
//	frames.json  — hex-encoded wire frames, one per message type
//	replays.json — sha256-pinned references into the .dsr replay corpus
//
// Regenerate with:
//
//	go test ./internal/conformance -update
//
// which re-runs the grid on the des runtime, re-encodes the frames, and
// re-hashes the replay corpus — and fails instead of writing when the
// result differs semantically from the committed corpus while
// CorpusVersion is unchanged.
package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/download"
)

// CorpusVersion is the fixture corpus format-and-semantics version.
// Bump it on any deliberate semantic change to a runtime, a protocol,
// the wire format, or the fixture schema; regeneration with -update
// refuses to rewrite changed expectations under an unchanged version.
//
// Version history:
//
//	1 — initial corpus: result grid, wire frames, replay pins.
//	2 — mirror tier: per-protocol mirror cases (honest and
//	    Byzantine-majority fleets) with MirrorHits/ProofFailures/
//	    FallbackQueries expectations, plus pinned netrt-codec frames
//	    for the ROOT/QPROOF/QUERYSRC mirror frames.
//	3 — crash-recovery churn: churn cases (Case.Churn schedules) with
//	    Rejoins/WarmHitBits expectations, run on every runtime column
//	    including a pinned churn-on-tcp row; the live column now runs
//	    flaky-source cases too (the live runtime gained the source
//	    resilience tier alongside churn).
//	4 — the query header names runs: after the first index, a zero byte
//	    escapes to a run of +1 steps or a repeat. Lists without either
//	    encode as before, so every earlier frame is unchanged; a pinned
//	    QUERYSRC whose list holds a run and a repeat is added.
//	5 — the index set drops its (gap, length) pairs: a one-index range
//	    is its gap from the previous end (from −1 for the first), a
//	    longer one a 0x00 byte, its length less two, then its gap. Every
//	    frame holding a non-empty set moves; the rest are unchanged.
const CorpusVersion = 5

// Fixture file names within a corpus directory.
const (
	ResultsFile = "results.json"
	FramesFile  = "frames.json"
	ReplaysFile = "replays.json"
)

// DefaultDir is the committed corpus location relative to the repo root
// (where `go run ./cmd/drconform` executes).
const DefaultDir = "internal/conformance/fixtures"

// Expect is the pinned result vector of one case, produced on the des
// runtime. Which fields other runtimes must reproduce is governed by
// the comparison mask (see fieldsFor in runner.go): output and
// correctness are runtime-invariant, Q is invariant on fault-free runs,
// and the remaining fields are deterministic on des only.
type Expect struct {
	// Correct reports every honest peer output X exactly.
	Correct bool `json:"correct"`
	// OutputFNV is the %016x FNV-1a hash of the honest output bits.
	OutputFNV string `json:"output_fnv"`
	// Q is the query complexity (max bits queried by an honest peer).
	Q int `json:"q"`
	// Msgs and MsgBits are the honest message complexity.
	Msgs    int `json:"msgs"`
	MsgBits int `json:"msg_bits"`
	// Events is the des event count; Time the virtual completion time.
	Events int    `json:"events"`
	Time   string `json:"time"` // %.4f
	// Source-resilience counters, nonzero only for flaky-source cases.
	SrcFailures  int `json:"src_failures,omitempty"`
	SrcRetries   int `json:"src_retries,omitempty"`
	BreakerOpens int `json:"breaker_opens,omitempty"`
	// Mirror-tier verdict counters, nonzero only for mirror cases
	// (des-deterministic; see fieldsFor).
	MirrorHits      int `json:"mirror_hits,omitempty"`
	ProofFailures   int `json:"proof_failures,omitempty"`
	FallbackQueries int `json:"fallback_queries,omitempty"`
	// Crash-recovery counters, nonzero only for churn cases. Rejoins is
	// runtime-invariant (the action clock is part of the contract), so
	// every column must reproduce it; WarmHitBits depends on which
	// deliveries landed before the crash and is pinned on des only.
	Rejoins     int `json:"rejoins,omitempty"`
	WarmHitBits int `json:"warm_hit_bits,omitempty"`
}

// Case is one conformance cell: a fully specified execution plus its
// pinned outcome.
type Case struct {
	// Name is the stable identity of the case ("protocol/n6t2/liar/s1");
	// drift detection is keyed on it.
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	L        int    `json:"l"`
	MsgBits  int    `json:"msg_bits"`
	Seed     int64  `json:"seed"`
	// Behavior is the download.FaultBehavior name; empty = fault-free.
	Behavior string `json:"behavior,omitempty"`
	// SourceFaults is a source.ParsePlan plan for flaky-source cases.
	SourceFaults string `json:"source_faults,omitempty"`
	// Mirrors is a source.ParseMirrorPlan plan routing queries through
	// an untrusted mirror fleet (Merkle-verified, authoritative
	// fallback).
	Mirrors string `json:"mirrors,omitempty"`
	// Churn is a download.ParseChurn schedule of crash-recovery peers
	// ("peer:crashAfter:downtime,..."). Downtime is in runtime time
	// units (virtual on des, seconds on TCP); the pinned fields
	// are time-invariant, so the unit difference cannot drift a cell.
	Churn  string `json:"churn,omitempty"`
	Expect Expect `json:"expect"`
}

// FaultFree reports whether the case injects no peer or source faults —
// the regime where Q and the output are invariant across all runtimes.
// A mirror fleet deliberately does NOT count as a fault: Byzantine
// mirrors cost fallback latency, never bits, so Q stays pinned (only
// verified bits are charged, wherever they came from). Churn counts as
// a fault: a rejoined peer's replayed queries shift schedules.
func (c *Case) FaultFree() bool {
	return c.Behavior == "" && c.SourceFaults == "" && c.Churn == ""
}

// options are the download options that execute the case on des.
func (c *Case) options() (download.Options, error) {
	churn, err := download.ParseChurn(c.Churn)
	return download.Options{
		Protocol: download.Protocol(c.Protocol),
		N:        c.N, T: c.T, L: c.L, MsgBits: c.MsgBits,
		Seed:         c.Seed,
		Behavior:     download.FaultBehavior(c.Behavior),
		SourceFaults: c.SourceFaults,
		Mirrors:      c.Mirrors,
		Churn:        churn,
	}, err
}

// expectOf is the result vector of one run.
func expectOf(rep *download.Report) Expect {
	return Expect{
		Correct:   rep.Correct,
		OutputFNV: HashBits(rep.Output),
		Q:         rep.Q,
		Msgs:      rep.Msgs,
		MsgBits:   rep.MsgBits,
		Events:    rep.Events,
		Time:      fmt.Sprintf("%.4f", rep.Time),

		SrcFailures:  rep.SourceFailures,
		SrcRetries:   rep.SourceRetries,
		BreakerOpens: rep.BreakerOpens,

		MirrorHits:      rep.MirrorHits,
		ProofFailures:   rep.ProofFailures,
		FallbackQueries: rep.FallbackQueries,

		Rejoins:     rep.Rejoins,
		WarmHitBits: rep.WarmHitBits,
	}
}

// Pinned reports whether the case carries a des-pinned expectation. A
// sweep case (SweepCases) does not: it is held to correctness and the
// envelope only.
func (c *Case) Pinned() bool { return c.Expect.OutputFNV != "" }

// variant names the matrix row a case sits in: its behavior, or the
// fault plane a fault-free case exercises.
func (c *Case) variant() string {
	switch {
	case c.Behavior != "":
		return c.Behavior
	case c.SourceFaults != "":
		return "flaky-source"
	case c.Mirrors != "":
		return "mirrors"
	case c.Churn != "":
		return "churn"
	default:
		return "(none)"
	}
}

// Results is the decoded results.json.
type Results struct {
	Version int    `json:"version"`
	Cases   []Case `json:"cases"`
}

// Frame is one pinned wire encoding: Hex must decode and re-encode to
// the identical bytes under the frame's codec — wire.Unmarshal/Marshal
// (with input length L) for protocol messages, or the netrt socket
// framing for the mirror-tier frames.
type Frame struct {
	Name string `json:"name"`
	L    int    `json:"l"`
	Hex  string `json:"hex"`
	// Codec selects the round-trip codec: "" (default) is the wire
	// message codec; "netrt" is the socket framing of the mirror-tier
	// ROOT/QPROOF/QUERYSRC frames (netrt.RoundTripMirrorFrame).
	Codec string `json:"codec,omitempty"`
}

// Frames is the decoded frames.json.
type Frames struct {
	Version int     `json:"version"`
	Frames  []Frame `json:"frames"`
}

// ReplayRef pins one file of the dst replay corpus byte-for-byte: the
// committed .dsr artifacts are part of the cross-runtime contract (they
// encode exact schedules any des-compatible engine must reproduce), so
// silent edits to them must fail conformance.
type ReplayRef struct {
	// File is the replay path relative to the corpus directory.
	File string `json:"file"`
	// SHA256 is the hex digest of the file bytes.
	SHA256 string `json:"sha256"`
	// Expect and EventHash mirror the replay's own pinned outcome for
	// human inspection; Verify re-checks them against the file.
	Expect    string `json:"expect"`
	EventHash string `json:"event_hash,omitempty"`
}

// Replays is the decoded replays.json.
type Replays struct {
	Version int         `json:"version"`
	Replays []ReplayRef `json:"replays"`
}

// Corpus is a fully loaded fixture directory.
type Corpus struct {
	Dir     string
	Results Results
	Frames  Frames
	Replays Replays
}

// marshalCanonical renders a fixture file in the corpus's canonical
// encoding: two-space indented JSON with a trailing newline. Committed
// fixtures must be byte-identical to this rendering of their decoded
// content (TestFixtureRoundTrip), so hand edits cannot drift the
// canonical form.
func marshalCanonical(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("conformance: parse %s: %w", path, err)
	}
	return nil
}

// Load reads a fixture corpus from dir and validates its version.
func Load(dir string) (*Corpus, error) {
	c := &Corpus{Dir: dir}
	if err := loadJSON(filepath.Join(dir, ResultsFile), &c.Results); err != nil {
		return nil, err
	}
	if err := loadJSON(filepath.Join(dir, FramesFile), &c.Frames); err != nil {
		return nil, err
	}
	if err := loadJSON(filepath.Join(dir, ReplaysFile), &c.Replays); err != nil {
		return nil, err
	}
	for name, v := range map[string]int{
		ResultsFile: c.Results.Version,
		FramesFile:  c.Frames.Version,
		ReplaysFile: c.Replays.Version,
	} {
		if v != CorpusVersion {
			return nil, fmt.Errorf("conformance: %s version %d, runner wants %d (regenerate with -update after bumping CorpusVersion)",
				name, v, CorpusVersion)
		}
	}
	if len(c.Results.Cases) == 0 {
		return nil, fmt.Errorf("conformance: %s has no cases", ResultsFile)
	}
	return c, nil
}

// HashBits is the corpus's output fingerprint: the %016x FNV-1a hash
// over the output bits, one byte per bit. Every runtime's honest output
// must hash to the case's OutputFNV.
func HashBits(bits []bool) string {
	h := fnv.New64a()
	buf := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}
