package dst

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"

	"repro/internal/adversary"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/source"
)

// Version is the current replay file format version. Readers accept only
// this version; bump it on any semantic change to the engine or format
// (old replays then fail loudly instead of replaying a different
// execution than they recorded).
const Version = 1

// Fault model names used in replay files.
const (
	FaultNone      = "none"
	FaultCrash     = "crash"
	FaultByzantine = "byzantine"
)

// Expectation names. Verify checks the replayed outcome against them.
const (
	// ExpectViolation: the run must fail (wrong output, deadlock, cap, or
	// panic). The default for shrunk failure artifacts.
	ExpectViolation = "violation"
	// ExpectDeadlock: the run must deadlock specifically.
	ExpectDeadlock = "deadlock"
	// ExpectCorrect: the run must succeed (pins known-good schedules).
	ExpectCorrect = "correct"
)

// CrashPoint is one crash-fault entry: Peer crashes after Point actions.
type CrashPoint struct {
	Peer  int `json:"peer"`
	Point int `json:"point"`
}

// ChurnPoint is one crash-recovery churn entry: Peer runs the honest
// protocol, crashes after Point actions, and — when Rejoin is set — comes
// back with a fresh protocol instance resuming warm from its persisted
// source-verified bits, at a moment the scheduler chooses. Churn peers
// count as faulty (correctness never depends on them) and are disjoint
// from the Faulty set.
type ChurnPoint struct {
	Peer   int  `json:"peer"`
	Point  int  `json:"point"`
	Rejoin bool `json:"rejoin,omitempty"`
}

// Strategy serializes a Byzantine strategy program (see
// adversary.Strategy).
type Strategy struct {
	Seed int64    `json:"seed"`
	Ops  []string `json:"ops"`
}

// Replay is the on-disk representation of one recorded execution — the
// *.dsr format. It is self-contained: protocol by registry name, all
// model parameters, the fault pattern, every scheduling decision, and an
// expectation + event hash for verification.
type Replay struct {
	Version  int    `json:"version"`
	Note     string `json:"note,omitempty"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	L        int    `json:"l"`
	MsgBits  int    `json:"msg_bits"`
	// Seed drives the input array, per-peer protocol coins, and the
	// Byzantine knowledge coins — exactly as sim.Config.Seed does in des.
	Seed        int64        `json:"seed"`
	Fault       string       `json:"fault,omitempty"` // none (default), crash, byzantine
	Faulty      []int        `json:"faulty,omitempty"`
	CrashPoints []CrashPoint `json:"crash_points,omitempty"`
	Strategy    *Strategy    `json:"strategy,omitempty"`
	// SourcePlan, when non-empty, makes the external source faulty per
	// source.ParsePlan's grammar; its time-valued fields (outage windows,
	// latency) count delivered-event steps, the engine's clock. Queries
	// then ride the per-peer retry/breaker client and source retries,
	// wakes, and failures become chooser-scheduled events.
	SourcePlan string `json:"source_plan,omitempty"`
	// MirrorPlan, when non-empty, fronts the source with an untrusted
	// mirror fleet per source.ParseMirrorPlan's grammar
	// ("mirrors=5,byz=3,behavior=mixed,leaf=32,seed=7"): replies carry
	// Merkle range proofs, verification failures fall back to the
	// authoritative tier, and only verified bits charge into Q. Mirror
	// choice and misbehavior are seeded per (peer, ordinal), so replays
	// stay byte-deterministic under any recorded schedule.
	MirrorPlan string `json:"mirror_plan,omitempty"`
	// Churn lists crash-recovery churn peers, orthogonal to Fault/Faulty.
	Churn []ChurnPoint `json:"churn,omitempty"`
	// Choices is the recorded scheduling-decision list; decisions beyond
	// it default to FIFO (0), so a truncated list is still a schedule.
	Choices []int `json:"choices"`
	// Expect names the outcome the replay pins (see Expect* constants);
	// empty means ExpectViolation for historical failure artifacts.
	Expect string `json:"expect,omitempty"`
	// EventHash, when set, is the %016x FNV-1a event-sequence hash the
	// replay must reproduce.
	EventHash string `json:"event_hash,omitempty"`
}

// Validate reports structural errors.
func (r *Replay) Validate() error {
	if r.Version != Version {
		return fmt.Errorf("dst: replay version %d, want %d", r.Version, Version)
	}
	proto, err := protocols.Lookup(r.Protocol)
	if err != nil {
		return err
	}
	sc := sim.Config{N: r.N, T: r.T, L: r.L, MsgBits: r.MsgBits, Seed: r.Seed}
	if err := sc.Validate(); err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	switch r.Fault {
	case "", FaultNone:
		if len(r.Faulty) != 0 {
			return fmt.Errorf("dst: fault %q with non-empty faulty set", FaultNone)
		}
	case FaultCrash:
		for _, cp := range r.CrashPoints {
			if !slices.Contains(r.Faulty, cp.Peer) {
				return fmt.Errorf("dst: crash point for non-faulty peer %d", cp.Peer)
			}
			if cp.Point < 0 {
				return fmt.Errorf("dst: negative crash point for peer %d", cp.Peer)
			}
		}
	case FaultByzantine:
		if r.Strategy == nil {
			return fmt.Errorf("dst: byzantine replay missing strategy")
		}
		if err := r.strategy().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dst: unknown fault model %q", r.Fault)
	}
	for _, cp := range r.Churn {
		if cp.Point < 0 {
			return fmt.Errorf("dst: negative churn crash point for peer %d", cp.Peer)
		}
	}
	if err := r.faults(proto.New).Validate(r.N, r.T); err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	if _, err := source.ParsePlan(r.SourcePlan); err != nil {
		return err
	}
	if _, err := source.ParseMirrorPlan(r.MirrorPlan); err != nil {
		return err
	}
	switch r.Expect {
	case "", ExpectViolation, ExpectDeadlock, ExpectCorrect:
	default:
		return fmt.Errorf("dst: unknown expectation %q", r.Expect)
	}
	for _, c := range r.Choices {
		if c < 0 {
			return fmt.Errorf("dst: negative choice %d", c)
		}
	}
	return nil
}

func (r *Replay) strategy() adversary.Strategy {
	prog := make([]adversary.Op, len(r.Strategy.Ops))
	for i, op := range r.Strategy.Ops {
		prog[i] = adversary.Op(op)
	}
	return adversary.Strategy{Seed: r.Strategy.Seed, Program: prog}
}

// Clone returns a deep copy.
func (r *Replay) Clone() *Replay {
	out := *r
	out.Faulty = append([]int(nil), r.Faulty...)
	out.CrashPoints = append([]CrashPoint(nil), r.CrashPoints...)
	out.Churn = append([]ChurnPoint(nil), r.Churn...)
	out.Choices = append([]int(nil), r.Choices...)
	if r.Strategy != nil {
		s := *r.Strategy
		s.Ops = append([]string(nil), r.Strategy.Ops...)
		out.Strategy = &s
	}
	return &out
}

// normalize puts the serialized form in canonical order (sorted faulty
// set and crash points) so Marshal is deterministic byte-for-byte.
func (r *Replay) normalize() {
	sort.Ints(r.Faulty)
	sort.Slice(r.CrashPoints, func(i, j int) bool { return r.CrashPoints[i].Peer < r.CrashPoints[j].Peer })
	sort.Slice(r.Churn, func(i, j int) bool { return r.Churn[i].Peer < r.Churn[j].Peer })
	if r.Fault == FaultNone {
		r.Fault = ""
	}
	if r.Choices == nil {
		r.Choices = []int{}
	}
}

// Marshal renders the canonical file bytes (deterministic: a load/save
// round trip of a normalized file is byte-identical).
func (r *Replay) Marshal() ([]byte, error) {
	r.normalize()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dst: marshal replay: %w", err)
	}
	return append(b, '\n'), nil
}

// Parse decodes replay bytes and validates them.
func Parse(b []byte) (*Replay, error) {
	var r Replay
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("dst: parse replay: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Load reads and validates a replay file.
func Load(path string) (*Replay, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dst: %w", err)
	}
	r, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("dst: %s: %w", path, err)
	}
	return r, nil
}

// Save writes the canonical file bytes to path.
func (r *Replay) Save(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	return nil
}

// spec is the one place dst builds a sim.Spec: it lowers the replay to
// the spec it describes. A churn peer's rejoin is an event the chooser
// places, so its Downtime only says whether there is one. A replay may
// list more faulty peers than t (the shrinker lowers T, the search adds
// churn on top of its t faulty), which sim.Spec admits only when told so.
func (r *Replay) spec() (*sim.Spec, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	proto, err := protocols.Lookup(r.Protocol)
	if err != nil {
		return nil, err
	}
	plan, err := source.ParsePlan(r.SourcePlan)
	if err != nil {
		return nil, err
	}
	mplan, err := source.ParseMirrorPlan(r.MirrorPlan)
	if err != nil {
		return nil, err
	}
	return &sim.Spec{
		Config:       sim.Config{N: r.N, T: r.T, L: r.L, MsgBits: r.MsgBits, Seed: r.Seed},
		NewPeer:      proto.New,
		Faults:       r.faults(proto.New),
		SourceFaults: plan,
		Mirrors:      mplan,
	}, nil
}

// faults lowers the header's fault fields to fates: the faulty set in its
// order, each crashing at its crash point (never, without one) or running
// the strategy, then the churn peers.
func (r *Replay) faults(honest func(sim.PeerID) sim.Peer) sim.Faults {
	var f sim.Faults
	switch r.Fault {
	case FaultCrash:
		points := make(map[int]int, len(r.CrashPoints))
		for _, cp := range r.CrashPoints {
			points[cp.Peer] = cp.Point
		}
		for _, p := range r.Faulty {
			after, ok := points[p]
			if !ok {
				after = -1
			}
			f.Fates = append(f.Fates, sim.Fate{Peer: sim.PeerID(p), CrashAfter: after, Downtime: -1})
		}
	case FaultByzantine:
		byz := r.strategy().NewStrategist(honest)
		for _, p := range r.Faulty {
			f.Fates = append(f.Fates, sim.Fate{Peer: sim.PeerID(p), CrashAfter: -1, Downtime: -1, Byzantine: byz})
		}
	}
	for _, cp := range r.Churn {
		down := -1.0
		if cp.Rejoin {
			down = 0
		}
		f.Fates = append(f.Fates, sim.Fate{Peer: sim.PeerID(cp.Peer), CrashAfter: cp.Point, Downtime: down})
	}
	f.AllowExcess = len(f.Fates) > r.T
	return f
}

// Run replays the recorded schedule and returns the outcome. It is the
// byte-deterministic re-execution path: same file, same Outcome, always.
func Run(r *Replay) (*Outcome, error) { return RunObserved(r, nil) }

// RunObserved replays with a structured observer attached (e.g. a
// trace.Recorder producing drtrace-compatible JSONL).
func RunObserved(r *Replay, obs sim.Observer) (*Outcome, error) {
	spec, err := r.spec()
	if err != nil {
		return nil, err
	}
	spec.Observer = obs
	return run(spec, replayChooser(r.Choices))
}

// Record executes the run described by r under a seeded random schedule
// (ignoring r.Choices) and returns a copy of r with the recorded decision
// list and event hash filled in, plus the outcome. The returned replay
// re-executes the recorded run exactly.
func Record(r *Replay, scheduleSeed int64) (*Replay, *Outcome, error) {
	spec, err := r.spec()
	if err != nil {
		return nil, nil, err
	}
	out, err := run(spec, randomChooser(scheduleSeed))
	if err != nil {
		return nil, nil, err
	}
	rec := r.Clone()
	rec.Choices = append([]int(nil), out.Choices...)
	rec.EventHash = HashString(out.EventHash)
	return rec, out, nil
}

// HashString renders an event hash in the replay file form.
func HashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// ParseOps parses a comma-separated strategy program ("lie,withhold")
// into the replay file's op-string form.
func ParseOps(s string) ([]string, error) {
	prog, err := adversary.ParseProgram(s)
	if err != nil {
		return nil, err
	}
	ops := make([]string, len(prog))
	for i, op := range prog {
		ops[i] = string(op)
	}
	return ops, nil
}

// matches reports whether the outcome satisfies the expectation.
func matches(expect string, out *Outcome) error {
	switch expect {
	case "", ExpectViolation:
		if !out.Violation() {
			return fmt.Errorf("expected a violation, run succeeded: %v", out.Result)
		}
	case ExpectDeadlock:
		if !out.Result.Deadlocked {
			return fmt.Errorf("expected deadlock, got: %v", out.Result)
		}
	case ExpectCorrect:
		if !out.Result.Correct {
			return fmt.Errorf("expected success, got: %v", out.Result)
		}
	}
	return nil
}

// Verify replays r and checks the outcome against its expectation and,
// when present, its event hash. This is what the regression suite and
// `drshrink verify` run.
func Verify(r *Replay) (*Outcome, error) {
	out, err := Run(r)
	if err != nil {
		return nil, err
	}
	if err := matches(r.Expect, out); err != nil {
		return out, fmt.Errorf("dst: %w", err)
	}
	if r.EventHash != "" {
		want, err := strconv.ParseUint(r.EventHash, 16, 64)
		if err != nil {
			return out, fmt.Errorf("dst: bad event_hash %q: %w", r.EventHash, err)
		}
		if out.EventHash != want {
			return out, fmt.Errorf("dst: event hash %s, recorded %s — the replay no longer reproduces the recorded execution",
				HashString(out.EventHash), r.EventHash)
		}
	}
	return out, nil
}
