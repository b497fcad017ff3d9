package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/download"
	"repro/internal/dst"
	"repro/internal/netrt"
	"repro/internal/wire"
)

// Runtime names one execution engine column of the conformance matrix.
type Runtime string

// The conformance runtimes.
const (
	DES  Runtime = "des"  // deterministic discrete-event engine
	Live Runtime = "live" // goroutine runtime (wall-clock, scaled)
	TCP  Runtime = "tcp"  // real-socket runtime (internal/netrt)
)

// Supports reports whether the runtime can execute a case at all. A
// skipped cell is not a pass: the matrix prints it as "-", and the
// equivalence suite asserts the documented rejection error for the
// unsupported combinations.
func (rt Runtime) Supports(c *Case) bool {
	switch rt {
	case Live:
		// The live runtime runs every case: it gained the source
		// resilience tier and churn alongside the socket runtime.
		return true
	case TCP:
		// Real sockets support only crash-from-start faults; source
		// plans are excluded because their time-valued fields mean
		// virtual units in fixtures but seconds on sockets. Churn runs:
		// its pinned fields (correctness, output, rejoin count) are
		// time-invariant, so the downtime unit difference cannot drift.
		return c.SourceFaults == "" &&
			(c.Behavior == "" || c.Behavior == string(download.CrashImmediate))
	default:
		return true
	}
}

// qScheduleInvariant lists the protocols whose fault-free query
// complexity Q does not depend on message arrival order: their query
// pattern is fixed by (n, t, L, seed) alone, so the des-pinned Q must
// reproduce on the concurrent and socket runtimes too (the des-vs-live
// equivalence property asserts this). Two families are excluded and held
// to their envelope instead (see docs/SPEC.md, "Runtime invariance").
// The crashk family's reassignment stage reacts to whichever progress
// reports arrive first. crash1 waits for n−1 pushes, so with everyone
// alive the slowest peer's block is re-spread and re-queried, and which
// peer is slowest is the schedule's choice: on TCP crash1/n6t1/none/s1
// missed its des-pinned Q in 17 of 30 runs.
var qScheduleInvariant = map[string]bool{
	string(download.Naive):      true,
	string(download.Committee):  true,
	string(download.TwoCycle):   true,
	string(download.MultiCycle): true,
}

// fieldsFor returns the Expect fields the runtime must reproduce for a
// case. Correctness and the output bits are runtime-invariant; Q is
// additionally pinned on live/tcp for fault-free cases of the
// schedule-invariant protocols; the cost/schedule fields (msgs, events,
// time) and source counters are deterministic only on the des engine.
func fieldsFor(rt Runtime, c *Case) []string {
	fields := []string{"correct", "output_fnv"}
	if rt == DES {
		return append(fields, "q", "msgs", "msg_bits", "events", "time",
			"src_failures", "src_retries", "breaker_opens",
			"mirror_hits", "proof_failures", "fallback_queries",
			"rejoins", "warm_hit_bits")
	}
	if c.FaultFree() && qScheduleInvariant[c.Protocol] {
		fields = append(fields, "q")
	}
	if c.Churn != "" {
		// The rejoin count is part of the contract on every runtime: a
		// churn peer crashes at its action count and (Downtime >= 0)
		// comes back, wall clocks or not. WarmHitBits stays des-only —
		// it depends on which deliveries landed before the crash.
		fields = append(fields, "rejoins")
	}
	return fields
}

// FieldDiff is one field-level conformance mismatch.
type FieldDiff struct {
	Field string
	Got   string
	Want  string
}

func (d FieldDiff) String() string {
	return fmt.Sprintf("%s: got %s, want %s", d.Field, d.Got, d.Want)
}

// CaseOutcome is the verdict of one (case, runtime) cell.
type CaseOutcome struct {
	Case    *Case
	Runtime Runtime
	// Skipped marks a cell the runtime does not support.
	Skipped bool
	// Err is a configuration or runtime error (not a mismatch).
	Err error
	// Diffs are field-level mismatches against the pinned expectation.
	Diffs []FieldDiff
	// Envelope lists Q/M complexity-envelope violations.
	Envelope []string
}

// Failed reports the cell failed conformance.
func (o *CaseOutcome) Failed() bool {
	return !o.Skipped && (o.Err != nil || len(o.Diffs) > 0 || len(o.Envelope) > 0)
}

// Config tunes a fixture run.
type Config struct {
	// Runtimes selects the matrix columns; empty means {DES, Live}.
	Runtimes []Runtime
	// LiveScale overrides the live runtime's virtual-unit wall duration
	// (0 keeps the library default). The conformance gate runs many
	// live executions, so it uses a sub-millisecond scale.
	LiveScale time.Duration
	// Filter, when non-nil, limits the run to matching cases.
	Filter func(*Case) bool
}

// Report is the outcome of a full fixture run.
type Report struct {
	Runtimes []Runtime
	Outcomes []CaseOutcome
	// FrameErrs and ReplayErrs are corpus-integrity failures (frame
	// round-trip mismatches, replay hash/verification drift).
	FrameErrs  []error
	ReplayErrs []error
}

// Failed reports whether any cell or corpus check failed.
func (r *Report) Failed() bool {
	if len(r.FrameErrs) > 0 || len(r.ReplayErrs) > 0 {
		return true
	}
	for i := range r.Outcomes {
		if r.Outcomes[i].Failed() {
			return true
		}
	}
	return false
}

// RunCase executes one case on one runtime and diffs the outcome.
func RunCase(c *Case, rt Runtime, cfg *Config) CaseOutcome {
	out := CaseOutcome{Case: c, Runtime: rt}
	if !rt.Supports(c) {
		out.Skipped = true
		return out
	}
	churn, err := download.ParseChurn(c.Churn)
	if err != nil {
		out.Err = err
		return out
	}
	opts := download.Options{
		Protocol: download.Protocol(c.Protocol),
		N:        c.N, T: c.T, L: c.L, MsgBits: c.MsgBits,
		Seed:         c.Seed,
		Behavior:     download.FaultBehavior(c.Behavior),
		SourceFaults: c.SourceFaults,
		Mirrors:      c.Mirrors,
		Churn:        churn,
		Live:         rt == Live,
		TCP:          rt == TCP,
	}
	if rt == Live {
		opts.LiveTimeScale = cfg.LiveScale
	}
	if rt == TCP {
		for _, cp := range churn {
			if cp.Downtime >= 0 {
				// Rejoin over sockets crosses a process restart and needs
				// the durable checkpoint store.
				dir, err := os.MkdirTemp("", "drconform-ckpt")
				if err != nil {
					out.Err = err
					return out
				}
				defer os.RemoveAll(dir)
				opts.CheckpointDir = dir
				break
			}
		}
	}
	rep, err := download.Run(opts)
	if err != nil {
		out.Err = err
		return out
	}
	out.Diffs = diff(c, rep, fieldsFor(rt, c))
	out.Envelope = CheckEnvelope(opts.Protocol, c.N, c.T, c.L, c.MsgBits, rep)
	return out
}

// diff compares the report against the case's pinned expectation on the
// selected fields.
func diff(c *Case, rep *download.Report, fields []string) []FieldDiff {
	want := c.Expect
	got := Expect{
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
	var diffs []FieldDiff
	add := func(field string, gotV, wantV any) {
		if gotV != wantV {
			diffs = append(diffs, FieldDiff{field, fmt.Sprint(gotV), fmt.Sprint(wantV)})
		}
	}
	for _, f := range fields {
		switch f {
		case "correct":
			add(f, got.Correct, want.Correct)
		case "output_fnv":
			add(f, got.OutputFNV, want.OutputFNV)
		case "q":
			add(f, got.Q, want.Q)
		case "msgs":
			add(f, got.Msgs, want.Msgs)
		case "msg_bits":
			add(f, got.MsgBits, want.MsgBits)
		case "events":
			add(f, got.Events, want.Events)
		case "time":
			add(f, got.Time, want.Time)
		case "src_failures":
			add(f, got.SrcFailures, want.SrcFailures)
		case "src_retries":
			add(f, got.SrcRetries, want.SrcRetries)
		case "breaker_opens":
			add(f, got.BreakerOpens, want.BreakerOpens)
		case "mirror_hits":
			add(f, got.MirrorHits, want.MirrorHits)
		case "proof_failures":
			add(f, got.ProofFailures, want.ProofFailures)
		case "fallback_queries":
			add(f, got.FallbackQueries, want.FallbackQueries)
		case "rejoins":
			add(f, got.Rejoins, want.Rejoins)
		case "warm_hit_bits":
			add(f, got.WarmHitBits, want.WarmHitBits)
		}
	}
	return diffs
}

// VerifyFrames round-trips every pinned frame under its codec: decode,
// re-encode, require byte identity. Protocol-message frames go through
// wire.Unmarshal/Marshal; the mirror-tier frames go through the netrt
// socket codec.
func VerifyFrames(frames *Frames) []error {
	var errs []error
	for _, f := range frames.Frames {
		raw, err := hex.DecodeString(f.Hex)
		if err != nil {
			errs = append(errs, fmt.Errorf("frame %s: bad hex: %w", f.Name, err))
			continue
		}
		if f.Codec == "netrt" {
			enc, err := netrt.RoundTripMirrorFrame(raw)
			if err != nil {
				errs = append(errs, fmt.Errorf("frame %s: decode: %w", f.Name, err))
			} else if !bytes.Equal(enc, raw) {
				errs = append(errs, fmt.Errorf("frame %s: re-encode drift:\n got  %x\n want %s",
					f.Name, enc, f.Hex))
			}
			continue
		}
		if f.Codec != "" {
			errs = append(errs, fmt.Errorf("frame %s: unknown codec %q", f.Name, f.Codec))
			continue
		}
		msg, err := wire.Unmarshal(raw, f.L)
		if err != nil {
			errs = append(errs, fmt.Errorf("frame %s: decode: %w", f.Name, err))
			continue
		}
		enc, err := wire.Marshal(msg)
		if err != nil {
			errs = append(errs, fmt.Errorf("frame %s: re-encode: %w", f.Name, err))
			continue
		}
		if !strings.EqualFold(hex.EncodeToString(enc), f.Hex) {
			errs = append(errs, fmt.Errorf("frame %s: re-encode drift:\n got  %x\n want %s",
				f.Name, enc, f.Hex))
		}
	}
	return errs
}

// VerifyReplays checks every replay reference: the file bytes must hash
// to the pinned sha256, and the replay must still verify (re-execute to
// its recorded expectation and event hash) on the des engine.
func VerifyReplays(dir string, replays *Replays) []error {
	var errs []error
	for _, ref := range replays.Replays {
		path := filepath.Join(dir, ref.File)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("replay %s: %w", ref.File, err))
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != ref.SHA256 {
			errs = append(errs, fmt.Errorf("replay %s: sha256 drift:\n got  %s\n want %s",
				ref.File, got, ref.SHA256))
			continue
		}
		r, err := dst.Parse(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("replay %s: parse: %w", ref.File, err))
			continue
		}
		if r.Expect != ref.Expect || r.EventHash != ref.EventHash {
			errs = append(errs, fmt.Errorf("replay %s: pinned expectation drift: file (%s, %s) vs ref (%s, %s)",
				ref.File, r.Expect, r.EventHash, ref.Expect, ref.EventHash))
			continue
		}
		if _, err := dst.Verify(r); err != nil {
			errs = append(errs, fmt.Errorf("replay %s: %w", ref.File, err))
		}
	}
	return errs
}

// RunFixtures executes the corpus on every configured runtime and
// verifies the frame and replay fixtures.
func RunFixtures(corpus *Corpus, cfg Config) *Report {
	if len(cfg.Runtimes) == 0 {
		cfg.Runtimes = []Runtime{DES, Live}
	}
	rep := &Report{Runtimes: cfg.Runtimes}
	for i := range corpus.Results.Cases {
		c := &corpus.Results.Cases[i]
		if cfg.Filter != nil && !cfg.Filter(c) {
			continue
		}
		for _, rt := range cfg.Runtimes {
			rep.Outcomes = append(rep.Outcomes, RunCase(c, rt, &cfg))
		}
	}
	if cfg.Filter == nil {
		rep.FrameErrs = VerifyFrames(&corpus.Frames)
		rep.ReplayErrs = VerifyReplays(corpus.Dir, &corpus.Replays)
	}
	return rep
}

// WriteMatrix renders the protocol×runtime pass matrix followed by
// field-level diffs for every failing cell and any corpus-integrity
// errors.
func (r *Report) WriteMatrix(w io.Writer) {
	type tally struct{ pass, fail, skip int }
	rows := make(map[string]map[Runtime]*tally)
	var protos []string
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		cells, ok := rows[o.Case.Protocol]
		if !ok {
			cells = make(map[Runtime]*tally)
			rows[o.Case.Protocol] = cells
			protos = append(protos, o.Case.Protocol)
		}
		cell := cells[o.Runtime]
		if cell == nil {
			cell = &tally{}
			cells[o.Runtime] = cell
		}
		switch {
		case o.Skipped:
			cell.skip++
		case o.Failed():
			cell.fail++
		default:
			cell.pass++
		}
	}
	sort.Strings(protos)
	fmt.Fprintf(w, "%-12s", "PROTOCOL")
	for _, rt := range r.Runtimes {
		fmt.Fprintf(w, " %-10s", strings.ToUpper(string(rt)))
	}
	fmt.Fprintln(w)
	for _, p := range protos {
		fmt.Fprintf(w, "%-12s", p)
		for _, rt := range r.Runtimes {
			cell := rows[p][rt]
			switch {
			case cell == nil || cell.pass+cell.fail == 0:
				fmt.Fprintf(w, " %-10s", "-")
			case cell.fail > 0:
				fmt.Fprintf(w, " %-10s", fmt.Sprintf("FAIL %d/%d", cell.fail, cell.pass+cell.fail))
			default:
				fmt.Fprintf(w, " %-10s", fmt.Sprintf("ok %d", cell.pass))
			}
		}
		fmt.Fprintln(w)
	}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if !o.Failed() {
			continue
		}
		fmt.Fprintf(w, "\nFAIL %s [%s]\n", o.Case.Name, o.Runtime)
		if o.Err != nil {
			fmt.Fprintf(w, "  error: %v\n", o.Err)
		}
		for _, d := range o.Diffs {
			fmt.Fprintf(w, "  %s\n", d)
		}
		for _, v := range o.Envelope {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	for _, err := range r.FrameErrs {
		fmt.Fprintf(w, "\nFAIL frame fixture: %v\n", err)
	}
	for _, err := range r.ReplayErrs {
		fmt.Fprintf(w, "\nFAIL replay fixture: %v\n", err)
	}
}
