// Package download is the public API of the asynchronous distributed
// Download library — a from-scratch implementation of "Distributed
// Download from an External Data Source in Asynchronous Faulty Settings"
// (Augustine, Chatterjee, King, Kumar, Meir, Peleg; companion of the
// PODC 2025 brief announcement on Byzantine-majority settings).
//
// The Data Retrieval model: n peers on a complete asynchronous network
// plus a trusted external source holding an L-bit array X. Peers learn X
// via cheap messages or expensive source queries; up to t = βn peers are
// faulty. Download requires every nonfaulty peer to output X exactly
// while minimizing the per-peer query complexity Q.
//
// The library ships every protocol from the paper:
//
//   - Naive           — Q = L, tolerates anything (the β ≥ 1/2 optimum)
//   - Crash1          — deterministic, 1 crash, Q = O(L/n)     (Thm 2.3)
//   - CrashK          — deterministic, ANY β < 1 crashes, Q = O(L/n) (Thm 2.13)
//   - CrashKFast      — CrashK with the fast stage-3 rule      (Thm 2.13)
//   - Committee       — deterministic, Byzantine β < 1/2, Q ≈ 2βL (Thm 3.4)
//   - TwoCycle        — randomized, Byzantine β < 1/2, Q = Õ(L/n) whp (Thm 3.7)
//   - MultiCycle      — randomized, Byzantine β < 1/2, better E[Q] (Thm 3.12)
//
// Use Run for one-call executions, or assemble sim.Spec values directly
// (internal packages) for finer control. Package internal/lowerbound
// demonstrates Theorems 3.1/3.2 constructively, and internal/oracle
// builds the paper's Section 4 blockchain-oracle application on top.
package download

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/harden"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/trace"
)

// Protocol names a Download protocol implementation.
type Protocol string

// The implemented protocols.
const (
	Naive      Protocol = "naive"
	Crash1     Protocol = "crash1"
	CrashK     Protocol = "crashk"
	CrashKFast Protocol = "crashk-fast"
	Committee  Protocol = "committee"
	TwoCycle   Protocol = "twocycle"
	MultiCycle Protocol = "multicycle"
)

// Info describes a protocol for discovery and help output.
type Info struct {
	Protocol    Protocol
	Determinism string // "deterministic" | "randomized"
	FaultModel  string // "any" | "crash" | "byzantine"
	Resilience  string
	Query       string // asymptotic query complexity
	Theorem     string
}

// Protocols lists all implementations with their paper provenance, in
// the order of the protocol table (internal/protocols).
func Protocols() []Info {
	var out []Info
	for _, row := range protocols.Rows() {
		if row.TestHook {
			continue
		}
		determinism := "deterministic"
		if row.Randomized {
			determinism = "randomized"
		}
		out = append(out, Info{Protocol(row.Name), determinism, row.FaultModel,
			row.Resilience, row.Query, row.Theorem})
	}
	return out
}

// Factory returns the peer constructor for a protocol.
func (p Protocol) Factory() (func(sim.PeerID) sim.Peer, error) {
	row, err := p.row()
	if err != nil {
		return nil, err
	}
	return row.New, nil
}

// row is p's row of the protocol table; a test hook is no download
// protocol.
func (p Protocol) row() (*protocols.Row, error) {
	row, err := protocols.Lookup(string(p))
	if err != nil || row.TestHook {
		return nil, fmt.Errorf("download: unknown protocol %q", p)
	}
	return row, nil
}

// FaultBehavior names an adversarial behavior for the faulty peers.
type FaultBehavior string

// The available fault behaviors. Crash behaviors stop peers; Byzantine
// behaviors replace them. "liar" picks the strongest protocol-aware
// attacker for the protocol under test.
const (
	NoFaults       FaultBehavior = ""
	CrashImmediate FaultBehavior = "crash"
	CrashRandom    FaultBehavior = "crash-random"
	Silent         FaultBehavior = "silent"
	Spam           FaultBehavior = "spam"
	Liar           FaultBehavior = "liar"
	Equivocate     FaultBehavior = "equivocate"
)

// Behaviors lists the supported fault behaviors.
func Behaviors() []FaultBehavior {
	return []FaultBehavior{NoFaults, CrashImmediate, CrashRandom, Silent, Spam, Liar, Equivocate}
}

// Options configures one execution.
type Options struct {
	// Protocol selects the implementation. Required.
	Protocol Protocol
	// N, T, L are the model parameters: peers, fault bound, input bits.
	N, T, L int
	// MsgBits is the message-size parameter b; 0 derives max(64, L/N).
	MsgBits int
	// Seed drives the input array, peer coins, delays, and crash points.
	Seed int64
	// Input optionally fixes the source array (length L); nil generates
	// a seeded random input.
	Input []bool
	// Faulty is the number of actually faulty peers (≤ T); 0 with a
	// non-empty Behavior defaults to T.
	Faulty int
	// Behavior selects the fault behavior; empty means no faults.
	Behavior FaultBehavior
	// AllowExcessFaults permits Faulty > T, modeling the scenario the
	// hardening layer exists for: the operator's fault-bound estimate was
	// wrong and the actual adversary exceeds it. Protocol guarantees are
	// void in that regime — pair it with RunHardened, which detects the
	// violation and escalates (see docs/HARDENING.md). Supported on every
	// runtime.
	AllowExcessFaults bool
	// Deadline, when positive, cuts the execution off. On des it is in
	// virtual time units, and the expiry is reported as a failure in the
	// Report; zero disables the cut-off (the event cap still applies). On
	// TCP it is in seconds of wall clock (netrt's Timeout), and a run
	// past it returns a *netrt.TimeoutError naming the unterminated
	// peers; zero keeps netrt's default of 30 s. Under RunHardened it
	// bounds each attempt: an expiry escalates, so a rung that stalls
	// over sockets costs its whole Deadline in wall time.
	Deadline float64
	// SourceFaults, when non-empty, makes the external source misbehave
	// per the source.ParsePlan grammar — e.g.
	// "fail=0.25,timeout=0.1,outage=2..5,rate=64/256,seed=7". Time units
	// are virtual on des and seconds on TCP. Honest peers survive via the
	// source resilience layer (retry/backoff/breaker); the Report's
	// Source* counters account for the recovery work. Supported on every
	// runtime.
	SourceFaults string
	// Mirrors, when non-empty, routes queries through a fleet of
	// untrusted replicas per the source.ParseMirrorPlan grammar — e.g.
	// "mirrors=5,byz=3,behavior=mixed,leaf=64,seed=7". Every mirror
	// reply carries a Merkle range proof checked against the source's
	// commitment root; verified bits are charged into Q exactly as a
	// direct query would be, failed proofs fall back to the
	// authoritative source (Report.ProofFailures / FallbackQueries).
	// Supported on every runtime; on TCP the proofs ride real QPROOF
	// frames (see docs/SPEC.md).
	Mirrors string
	// Churn schedules crash-recovery peers: each crashes after its
	// action count, stays down for Downtime, then rejoins and resumes
	// from its persisted verified-index state. Churn peers count toward
	// T alongside Faulty ones. Supported on every runtime; on TCP a
	// socket peer's process state dies with it, so a rejoining peer
	// restores from a durable checkpoint (see CheckpointDir).
	Churn []ChurnPeer
	// CheckpointDir is where TCP churn peers persist durable checkpoints
	// so a rejoining incarnation restarts warm (see internal/checkpoint).
	// Empty, a TCP run with a rejoining peer (Downtime >= 0) checkpoints
	// to a temporary directory that it removes when it ends. Meaningless
	// elsewhere — the des runtime persists in memory — and rejected there
	// to catch misconfiguration.
	CheckpointDir string
	// Workers is unused: no runtime reads it.
	//
	// Deprecated: ignored.
	Workers int
	// TCP runs the real-socket runtime (internal/netrt) instead of the
	// deterministic discrete-event runtime: peers exchange wire-encoded
	// frames through a local hub. Every Behavior and option runs there:
	// crashed peers never connect, a random crash point is a mid-run
	// crash, Byzantine peers run their behavior on their own clients,
	// faults may exceed T (AllowExcessFaults), and RunHardened runs every
	// rung over sockets.
	TCP bool
	// TraceJSONL, when non-nil, receives one JSON object per structured
	// runtime event (sends, deliveries, queries, phases, crashes,
	// terminations; sim.ObservedEvent) on every runtime — see
	// internal/trace for the analyzer.
	TraceJSONL io.Writer
	// Metrics, when non-nil, receives runtime counters and histograms
	// from the selected runtime (see docs/OBSERVABILITY.md for the
	// series). The registry is concurrency-safe and may be shared across
	// runs; nil disables collection at zero cost.
	Metrics *obs.Registry
	// Timeline, when non-nil, marks the lifecycle events of the run's
	// event stream (protocol phase transitions, crashes, reconnects,
	// terminations; sim.TimelineObserver).
	Timeline *obs.Timeline
}

// ChurnPeer schedules one crash-recovery peer (see Options.Churn): it
// runs the honest protocol, crashes after CrashAfter actions, and — when
// Downtime is non-negative — rejoins that many time units later, resuming
// from its persisted verified-index state. A negative Downtime is a plain
// crash that never recovers.
type ChurnPeer struct {
	Peer       int
	CrashAfter int
	Downtime   float64
}

// Report is the outcome of one execution: the runtime's sim.Result — Q,
// the message complexity Msgs, the termination time Time, correctness,
// the recovery counters and one sim.PeerStats per peer — plus the
// downloaded array.
type Report struct {
	sim.Result
	// Output is the first honest peer's correct output (the downloaded
	// array); nil when no honest peer output X.
	Output []bool
	// Hardening is set only by RunHardened: the supervisor's account of
	// attempts, detections, escalations, audit charges, and warm-start
	// savings.
	Hardening *harden.Outcome
}

// Run executes one Download and reports the outcome. Configuration
// errors are returned; protocol-level failures are reported in the
// Report (Correct=false with Failures).
func Run(opts Options) (*Report, error) {
	r, err := opts.validate()
	if err != nil {
		return nil, err
	}
	spec := buildSpec(opts, r)
	var flush func() error
	spec.Observer, flush = opts.stream()
	res, err := opts.runner()(spec)
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("download: trace: %w", err)
	}
	return buildReport(res), nil
}

// stream is the run's event stream as the options ask for it: the JSONL
// recorder of TraceJSONL and the timeline view of Timeline. The observer
// is nil when nothing listens, so an untraced run attaches none; flush
// drains the recorder.
func (o *Options) stream() (observer sim.Observer, flush func() error) {
	tl := sim.TimelineObserver(o.Timeline)
	if o.TraceJSONL == nil {
		return tl, func() error { return nil }
	}
	rec := trace.NewRecorder(o.TraceJSONL)
	return sim.Tee(rec, tl), rec.Flush
}

// resolved is what checked options come to: the values every runtime's
// set-up needs, derived in one place.
type resolved struct {
	row        *protocols.Row
	msgBits    int // Options.MsgBits, or max(64, L/N) when that is 0
	input      *bitarray.Array
	srcPlan    *source.FaultPlan
	mirrorPlan *source.MirrorPlan
	// faults are the faulty peers' fates, the same on every runtime: the
	// peers misbehaving per Options.Behavior, then the churn schedule.
	faults sim.Faults
}

// validate catches option-level misconfiguration with a specific error
// before spec construction: every case here either slipped through to a
// confusing sim-level message before, or — like a negative Faulty count —
// silently degenerated into a run with no faults at all. What it parses
// and derives on the way it hands back.
func (o *Options) validate() (*resolved, error) {
	r := &resolved{msgBits: o.MsgBits}
	var err error
	if r.row, err = o.Protocol.row(); err != nil {
		return nil, err
	}
	switch {
	case o.N < 2:
		return nil, fmt.Errorf("download: need at least 2 peers, have N=%d", o.N)
	case o.L <= 0:
		return nil, fmt.Errorf("download: input length L=%d must be positive", o.L)
	case o.T < 0 || o.T >= o.N:
		return nil, fmt.Errorf("download: fault bound T=%d outside [0, N) for N=%d", o.T, o.N)
	case o.MsgBits < 0:
		return nil, fmt.Errorf("download: message size MsgBits=%d must not be negative (0 derives a default)", o.MsgBits)
	case o.Faulty < 0:
		return nil, fmt.Errorf("download: Faulty=%d must not be negative", o.Faulty)
	case o.Deadline < 0:
		return nil, fmt.Errorf("download: Deadline=%g must not be negative", o.Deadline)
	case o.Input != nil && len(o.Input) != o.L:
		return nil, fmt.Errorf("download: input length %d != L=%d", len(o.Input), o.L)
	}
	if r.srcPlan, err = source.ParsePlan(o.SourceFaults); err != nil {
		return nil, err
	}
	if r.mirrorPlan, err = source.ParseMirrorPlan(o.Mirrors); err != nil {
		return nil, err
	}
	if err := o.validateChurn(); err != nil {
		return nil, err
	}
	switch o.Behavior {
	case NoFaults:
		if o.Faulty != 0 {
			return nil, errors.New("download: faulty peers given without a behavior")
		}
	case CrashImmediate, CrashRandom, Silent, Spam, Liar, Equivocate:
		faulty := o.Faulty
		if faulty == 0 {
			faulty = o.T
		}
		if faulty >= o.N {
			return nil, fmt.Errorf("download: %d faulty peers leaves no honest peer (N=%d)", faulty, o.N)
		}
		if faulty > o.T && !o.AllowExcessFaults {
			return nil, fmt.Errorf("download: %d faulty exceeds bound T=%d (set AllowExcessFaults to model a violated fault bound)", faulty, o.T)
		}
		r.faults = sim.Faults{Fates: o.fates(r.row, faulty), AllowExcess: faulty > o.T}
	default:
		return nil, fmt.Errorf("download: unknown behavior %q", o.Behavior)
	}
	if r.msgBits == 0 {
		r.msgBits = max(64, o.L/o.N)
	}
	if o.Input != nil {
		r.input = bitarray.FromBools(o.Input)
	}
	for _, cp := range o.Churn {
		r.faults.Fates = append(r.faults.Fates, sim.Fate{
			Peer: sim.PeerID(cp.Peer), CrashAfter: cp.CrashAfter, Downtime: cp.Downtime,
		})
	}
	return r, nil
}

// validateChurn checks the churn schedule, and refuses a CheckpointDir
// on des, which keeps rejoin state in memory.
func (o *Options) validateChurn() error {
	for _, cp := range o.Churn {
		if cp.Peer < 0 || cp.Peer >= o.N {
			return fmt.Errorf("download: churn peer %d outside [0, N) for N=%d", cp.Peer, o.N)
		}
		if cp.CrashAfter < 0 {
			return fmt.Errorf("download: churn peer %d has negative CrashAfter %d", cp.Peer, cp.CrashAfter)
		}
	}
	if o.CheckpointDir != "" && !o.TCP {
		return errors.New("download: CheckpointDir is for the TCP runtime only; des persists rejoin state in memory")
	}
	return nil
}

// runner is the runtime the options select, which Run and
// RunHardenedLadder both call: des, or the real-socket runtime running the
// same spec.
func (o *Options) runner() sim.Runner {
	if !o.TCP {
		return des.New().Run
	}
	return netrt.Runner(netrt.Net{CheckpointDir: o.CheckpointDir})
}

func buildSpec(opts Options, r *resolved) *sim.Spec {
	return &sim.Spec{
		Config: sim.Config{
			N: opts.N, T: opts.T, L: opts.L,
			MsgBits: r.msgBits, Seed: opts.Seed, Input: r.input,
		},
		NewPeer:      r.row.New,
		Delays:       adversary.NewRandomUnit(opts.Seed + 1000003),
		Faults:       r.faults,
		SourceFaults: r.srcPlan,
		Mirrors:      r.mirrorPlan,
		Metrics:      opts.Metrics,
		Label:        string(opts.Protocol),
		Deadline:     opts.Deadline,
	}
}

// fates places count faulty peers of the validated behavior; the liar and
// equivocate behaviors run the attackers of the protocol's row.
func (o *Options) fates(row *protocols.Row, count int) []sim.Fate {
	faulty := adversary.SpreadFaulty(o.N, count)
	switch o.Behavior {
	case CrashImmediate:
		return sim.Crashes(faulty, 0)
	case CrashRandom:
		return adversary.NewCrashRandom(o.Seed+9, faulty, 100*o.N)
	case Silent:
		return sim.Byzantines(faulty, adversary.NewSilent)
	case Spam:
		return sim.Byzantines(faulty, adversary.NewSpammer(8, 512))
	}
	if o.Behavior == Equivocate {
		return sim.Byzantines(faulty, row.Equivocator)
	}
	return sim.Byzantines(faulty, row.Liar)
}

func buildReport(res *sim.Result) *Report {
	rep := &Report{Result: *res}
	for i := range res.PerPeer {
		ps := &res.PerPeer[i]
		if ps.Honest && ps.OutputCorrect {
			rep.Output = make([]bool, ps.Output.Len())
			for j := range rep.Output {
				rep.Output[j] = ps.Output.Get(j)
			}
			break
		}
	}
	return rep
}
