package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/download"
	"repro/internal/dst"
	"repro/internal/harden"
	"repro/internal/netrt"
	"repro/internal/wire"
)

// Runtime names one column of the conformance matrix.
type Runtime string

// The conformance runtimes. SRC, MIR and Harden are the des engine again:
// every query routed through Config.SourcePlan (SRC) or through the
// untrusted mirror fleet Config.Mirrors (MIR), or the run supervised by
// download.RunHardened (Harden).
const (
	DES    Runtime = "des"    // deterministic discrete-event engine
	TCP    Runtime = "tcp"    // real-socket runtime (internal/netrt)
	SRC    Runtime = "src"    // des behind a flaky source
	MIR    Runtime = "mir"    // des behind a mirror fleet
	Harden Runtime = "harden" // des under the hardening supervisor
)

// Supports reports whether conformance runs a case on the runtime at all.
// Its one rule is conformance's own: a case with a source plan does not
// run on tcp, because the plan's times are des steps there and sockets
// would read them as seconds. What a runtime can serve is download's to
// say: a run it refuses with *download.UnsupportedError is skipped too.
// A skipped cell is not a pass; the matrix prints it as "-".
func (rt Runtime) Supports(c *Case) bool {
	return rt != TCP || c.SourceFaults == ""
}

// qScheduleInvariant lists the protocols whose fault-free query
// complexity Q does not depend on message arrival order: their query
// pattern is fixed by (n, t, L, seed) alone, so the des-pinned Q must
// reproduce on the socket runtime too (the des-vs-tcp equivalence
// property asserts this). Under Byzantine faults Q moves with the
// schedule even for these (twocycle under equivocate at n = 128, t = 32,
// L = 16,384: 5463 on des, 5464 on tcp), so faulty cases pin correctness
// and the output alone. Two families are excluded and held
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
// case. An unpinned case holds correctness alone. Correctness and the
// output bits are runtime-invariant, and all the SRC, MIR and Harden
// columns hold, since they change the run the pin was taken from; Q is
// additionally pinned on tcp for fault-free cases of the
// schedule-invariant protocols; the cost/schedule fields (msgs, events,
// time) and source counters are deterministic only on the des engine.
func fieldsFor(rt Runtime, c *Case) []string {
	if !c.Pinned() {
		return []string{"correct"}
	}
	fields := []string{"correct", "output_fnv"}
	switch rt {
	case DES:
		return append(fields, "q", "msgs", "msg_bits", "events", "time",
			"src_failures", "src_retries", "breaker_opens",
			"mirror_hits", "proof_failures", "fallback_queries",
			"rejoins", "warm_hit_bits")
	case SRC, MIR, Harden:
		return fields
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
	// Skipped marks a cell the runtime does not run: one Supports
	// rules out, or one download refused with *download.UnsupportedError.
	Skipped bool
	// Err is a configuration or runtime error (not a mismatch).
	Err error
	// Diffs are field-level mismatches against the pinned expectation.
	Diffs []FieldDiff
	// Envelope lists Q/M complexity-envelope violations.
	Envelope []string
	// Hardening is the supervisor's account of a Harden cell.
	Hardening *download.HardeningReport
}

// Failed reports the cell failed conformance.
func (o *CaseOutcome) Failed() bool {
	return !o.Skipped && (o.Err != nil || len(o.Diffs) > 0 || len(o.Envelope) > 0)
}

// Config tunes a conformance run.
type Config struct {
	// Runtimes selects the matrix columns; empty means {DES}.
	Runtimes []Runtime
	// SourcePlan is the source.ParsePlan plan of the SRC column, and
	// Mirrors the source.ParseMirrorPlan fleet of the MIR column.
	SourcePlan string
	Mirrors    string
	// Filter, when non-nil, limits the run to matching cases.
	Filter func(*Case) bool
	// Interrupt, when it becomes readable (usually by being closed from
	// a signal handler), stops the run before its next case. The partial
	// report is still returned with Interrupted set, so an interrupted
	// CI job can flush the matrix it has.
	Interrupt <-chan struct{}
}

// Report is the outcome of a conformance run.
type Report struct {
	Runtimes []Runtime
	Outcomes []CaseOutcome
	// FrameErrs and ReplayErrs are corpus-integrity failures (frame
	// round-trip mismatches, replay hash/verification drift).
	FrameErrs  []error
	ReplayErrs []error
	// Interrupted marks a run stopped early by Config.Interrupt:
	// Outcomes covers only the cases finished before it fired.
	Interrupted bool
}

// Failures counts the failed cells and corpus checks.
func (r *Report) Failures() int {
	n := len(r.FrameErrs) + len(r.ReplayErrs)
	for i := range r.Outcomes {
		if r.Outcomes[i].Failed() {
			n++
		}
	}
	return n
}

// Failed reports whether any cell or corpus check failed.
func (r *Report) Failed() bool { return r.Failures() > 0 }

// RunCase executes one case on one runtime and diffs the outcome.
func RunCase(c *Case, rt Runtime, cfg *Config) CaseOutcome {
	out := CaseOutcome{Case: c, Runtime: rt}
	if !rt.Supports(c) {
		out.Skipped = true
		return out
	}
	opts, err := c.options()
	if err != nil {
		out.Err = err
		return out
	}
	run := download.Run
	switch rt {
	case TCP:
		opts.TCP = true
	case SRC:
		opts.SourceFaults = cfg.SourcePlan
	case MIR:
		opts.Mirrors = cfg.Mirrors
	case Harden:
		run = func(o download.Options) (*download.Report, error) {
			return download.RunHardened(o, harden.Policy{})
		}
	}
	rep, err := run(opts)
	var unsupported *download.UnsupportedError
	switch {
	case errors.As(err, &unsupported):
		out.Skipped = true
		return out
	case err != nil:
		out.Err = err
		return out
	}
	out.Diffs = diff(c, rep, fieldsFor(rt, c))
	if rt == Harden {
		// A hardened Q sums every attempt, audit bits included, so it is
		// not one run's Q and the envelope does not bound it.
		out.Hardening = rep.Hardening
		return out
	}
	out.Envelope = CheckEnvelope(opts.Protocol, c.N, c.T, c.L, c.MsgBits, rep)
	return out
}

// expectFields reads each field an Expect pins, by its JSON name.
var expectFields = map[string]func(e *Expect) any{
	"correct":          func(e *Expect) any { return e.Correct },
	"output_fnv":       func(e *Expect) any { return e.OutputFNV },
	"q":                func(e *Expect) any { return e.Q },
	"msgs":             func(e *Expect) any { return e.Msgs },
	"msg_bits":         func(e *Expect) any { return e.MsgBits },
	"events":           func(e *Expect) any { return e.Events },
	"time":             func(e *Expect) any { return e.Time },
	"src_failures":     func(e *Expect) any { return e.SrcFailures },
	"src_retries":      func(e *Expect) any { return e.SrcRetries },
	"breaker_opens":    func(e *Expect) any { return e.BreakerOpens },
	"mirror_hits":      func(e *Expect) any { return e.MirrorHits },
	"proof_failures":   func(e *Expect) any { return e.ProofFailures },
	"fallback_queries": func(e *Expect) any { return e.FallbackQueries },
	"rejoins":          func(e *Expect) any { return e.Rejoins },
	"warm_hit_bits":    func(e *Expect) any { return e.WarmHitBits },
}

// diff compares the report against the case's expectation on the
// selected fields. An incorrect run's diff names its first failure.
func diff(c *Case, rep *download.Report, fields []string) []FieldDiff {
	got := expectOf(rep)
	var diffs []FieldDiff
	for _, f := range fields {
		g, w := expectFields[f](&got), expectFields[f](&c.Expect)
		if g == w {
			continue
		}
		d := FieldDiff{f, fmt.Sprint(g), fmt.Sprint(w)}
		if f == "correct" && len(rep.Failures) > 0 {
			d.Got += " (" + rep.Failures[0] + ")"
		}
		diffs = append(diffs, d)
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

// RunCases executes every case on every configured runtime, case by
// case, until Config.Interrupt fires.
func RunCases(cases []Case, cfg Config) *Report {
	if len(cfg.Runtimes) == 0 {
		cfg.Runtimes = []Runtime{DES}
	}
	rep := &Report{Runtimes: cfg.Runtimes}
	for i := range cases {
		c := &cases[i]
		if cfg.Filter != nil && !cfg.Filter(c) {
			continue
		}
		select {
		case <-cfg.Interrupt:
			rep.Interrupted = true
			return rep
		default:
		}
		for _, rt := range cfg.Runtimes {
			rep.Outcomes = append(rep.Outcomes, RunCase(c, rt, &cfg))
		}
	}
	return rep
}

// RunFixtures executes the corpus on every configured runtime and
// verifies the frame and replay fixtures.
func RunFixtures(corpus *Corpus, cfg Config) *Report {
	rep := RunCases(corpus.Results.Cases, cfg)
	if cfg.Filter == nil && !rep.Interrupted {
		rep.FrameErrs = VerifyFrames(&corpus.Frames)
		rep.ReplayErrs = VerifyReplays(corpus.Dir, &corpus.Replays)
	}
	return rep
}

// WriteMatrix renders the pass/fail matrix, one row per (protocol,
// variant) and one column per runtime, followed by the details of every
// failing cell and any corpus-integrity errors. A cell reads passed/failed
// runs, "-" when every run was skipped; a Harden cell adds how many
// passing runs detected a violation, escalated, and ended corrected.
func (r *Report) WriteMatrix(w io.Writer) {
	type tally struct{ pass, fail, detected, escalated, corrected int }
	type row struct {
		proto, variant string
		cells          map[Runtime]*tally
	}
	var rows []*row
	index := make(map[[2]string]*row)
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		key := [2]string{o.Case.Protocol, o.Case.variant()}
		rw := index[key]
		if rw == nil {
			rw = &row{proto: key[0], variant: key[1], cells: make(map[Runtime]*tally)}
			index[key] = rw
			rows = append(rows, rw)
		}
		cell := rw.cells[o.Runtime]
		if cell == nil {
			cell = &tally{}
			rw.cells[o.Runtime] = cell
		}
		switch {
		case o.Skipped:
		case o.Failed():
			cell.fail++
		default:
			cell.pass++
			if h := o.Hardening; h != nil {
				cell.detected += b2i(h.Detected)
				cell.escalated += b2i(len(h.Escalations) > 1)
				cell.corrected += b2i(h.Corrected)
			}
		}
	}
	width := func(rt Runtime) int {
		if rt == Harden {
			return 16
		}
		return 8
	}
	fmt.Fprintf(w, "%-12s %-14s", "PROTOCOL", "BEHAVIOR")
	for _, rt := range r.Runtimes {
		head := strings.ToUpper(string(rt))
		if rt == Harden {
			head += "(d/e/c)"
		}
		fmt.Fprintf(w, " %-*s", width(rt), head)
	}
	fmt.Fprintln(w)
	for _, rw := range rows {
		fmt.Fprintf(w, "%-12s %-14s", rw.proto, rw.variant)
		for _, rt := range r.Runtimes {
			text := "-"
			if c := rw.cells[rt]; c != nil && c.pass+c.fail > 0 {
				text = fmt.Sprintf("%d/%d", c.pass, c.fail)
				if rt == Harden {
					text += fmt.Sprintf(" d%d e%d c%d", c.detected, c.escalated, c.corrected)
				}
			}
			fmt.Fprintf(w, " %-*s", width(rt), text)
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
