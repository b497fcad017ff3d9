// Package lowerbound implements the paper's Byzantine-majority lower
// bounds (Theorems 3.1 and 3.2) as executable attack harnesses.
//
// Theorem 3.1 (deterministic, β ≥ 1/2): any deterministic asynchronous
// Download protocol in which some peer queries fewer than L bits can be
// made to output wrongly. The construction: pick a set B of t peers and a
// victim v ∉ B. In execution E1 (input X1) the adversary delays all of
// B's outgoing messages until v terminates; v terminates having queried
// some set of bits, missing at least one bit b*. In execution E2 the input
// X2 flips bit b*, B is delayed the same way, and the adversary corrupts
// the remaining peers C = P∖B∖{v} (possible because |C| ≤ t when
// β ≥ 1/2), instructing them to behave exactly as they would on input X1
// — achieved here by re-running the honest protocol with their source
// replies rewritten to X1. The two executions are indistinguishable to v,
// which therefore outputs X1's value at b* — wrong under X2.
//
// Theorem 3.2 (randomized, β ≥ 1/2): the same construction defeats
// randomized protocols that query at most q < L bits per peer: the
// adversary, who knows the protocol but not the victim's coins, simulates
// it to estimate the per-bit query probability, targets the least-queried
// bit b* (query probability ≤ q/L by averaging), and wins whenever the
// victim's coins skip b*. AttackRandomized measures the empirical success
// rate, which approaches 1 − q/L.
//
// Both harnesses are protocol-agnostic: they accept any sim.Peer factory.
// Against the naive protocol (Q = L) the deterministic attack reports
// FullCoverage and cannot proceed — exactly the theorem's boundary.
package lowerbound

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/sim"
)

// slowDelay is long enough that every victim terminates first; the model
// requires finite delays, and the engine delivers these eventually.
const slowDelay = 1e6

// AttackConfig parameterizes the lower-bound constructions.
type AttackConfig struct {
	// N is the number of peers (≥ 3).
	N int
	// L is the input length.
	L int
	// MsgBits is the message-size parameter (default L/N, floored at 64).
	MsgBits int
	// Seed drives the input, the delay policy, and all peer coins.
	Seed int64
	// NewPeer builds the protocol under attack.
	NewPeer func(sim.PeerID) sim.Peer
}

func (c *AttackConfig) validate() error {
	if c.N < 3 {
		return errors.New("lowerbound: need at least 3 peers")
	}
	if c.L < 2 {
		return errors.New("lowerbound: need at least 2 bits")
	}
	if c.NewPeer == nil {
		return errors.New("lowerbound: missing protocol factory")
	}
	return nil
}

func (c *AttackConfig) msgBits() int {
	if c.MsgBits > 0 {
		return c.MsgBits
	}
	b := c.L / c.N
	if b < 64 {
		b = 64
	}
	return b
}

// roles returns the delayed set B, the corrupted set C, and the victim
// for the β = t/n ≥ 1/2 construction.
func (c *AttackConfig) roles() (b, corrupt []sim.PeerID, victim sim.PeerID, t int) {
	t = c.N / 2
	for i := 0; i < t; i++ {
		b = append(b, sim.PeerID(i))
	}
	victim = sim.PeerID(c.N - 1)
	for i := t; i < c.N-1; i++ {
		corrupt = append(corrupt, sim.PeerID(i))
	}
	return b, corrupt, victim, t
}

// Report describes one attack attempt.
type Report struct {
	// Victim is the honest peer under attack.
	Victim sim.PeerID
	// VictimQueried is the number of distinct bits the victim queried in
	// the probe execution.
	VictimQueried int
	// FullCoverage is set when the victim queried every bit — the attack
	// is impossible, the protocol is (locally) naive.
	FullCoverage bool
	// TargetBit is the flipped bit b*.
	TargetBit int
	// VictimTerminated reports the victim terminated in the attack
	// execution (it must, for indistinguishability to have held).
	VictimTerminated bool
	// Succeeded reports the victim output the wrong value at TargetBit.
	Succeeded bool
	// ProbeQ and AttackQ are the victim's query counts in each run.
	ProbeQ, AttackQ int
}

// String renders a one-line summary.
func (r *Report) String() string {
	switch {
	case r.FullCoverage:
		return fmt.Sprintf("attack impossible: victim %d queried all bits (naive)", r.Victim)
	case r.Succeeded:
		return fmt.Sprintf("attack SUCCEEDED: victim %d output wrong bit %d (probe Q=%d)",
			r.Victim, r.TargetBit, r.ProbeQ)
	default:
		return fmt.Sprintf("attack failed: victim %d survived flip of bit %d", r.Victim, r.TargetBit)
	}
}

// AttackDeterministic runs the Theorem 3.1 construction once. The target
// bit is chosen from the probe run (legitimate for deterministic
// protocols: the adversary can simulate them exactly).
func AttackDeterministic(cfg AttackConfig) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	probe, err := runProbe(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Victim: probe.victim, VictimQueried: len(probe.queried), ProbeQ: len(probe.queried)}
	target := pickUnqueried(probe.queried, cfg.L)
	if target < 0 {
		rep.FullCoverage = true
		return rep, nil
	}
	rep.TargetBit = target
	return runAttack(cfg, probe, target, rep)
}

// AttackRandomized runs the Theorem 3.2 construction: `training` probe
// simulations (with coins the adversary controls) estimate the per-bit
// query distribution; the least-queried bit is targeted across `trials`
// attack executions with fresh victim coins. It returns the per-trial
// reports; the success fraction demonstrates the bound.
func AttackRandomized(cfg AttackConfig, training, trials int) ([]*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if training < 1 || trials < 1 {
		return nil, errors.New("lowerbound: need at least one training run and one trial")
	}
	// Train: count how often each bit is queried by the victim.
	counts := make([]int, cfg.L)
	for i := 0; i < training; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		probe, err := runProbe(c)
		if err != nil {
			return nil, err
		}
		for bit := range probe.queried {
			counts[bit]++
		}
	}
	target := 0
	for i, c := range counts {
		if c < counts[target] {
			target = i
		}
	}
	// Attack with fresh coins.
	reports := make([]*Report, 0, trials)
	for i := 0; i < trials; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(training+i)*104729
		probe, err := runProbe(c)
		if err != nil {
			return nil, err
		}
		rep := &Report{
			Victim:        probe.victim,
			VictimQueried: len(probe.queried),
			ProbeQ:        len(probe.queried),
			TargetBit:     target,
		}
		rep, err = runAttack(c, probe, target, rep)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// SuccessRate summarizes randomized-attack reports.
func SuccessRate(reports []*Report) float64 {
	if len(reports) == 0 {
		return 0
	}
	s := 0
	for _, r := range reports {
		if r.Succeeded {
			s++
		}
	}
	return float64(s) / float64(len(reports))
}

// probeResult captures execution E1.
type probeResult struct {
	victim  sim.PeerID
	input   *bitarray.Array
	queried map[int]bool
}

// runProbe executes E1: everyone honest, B's outgoing traffic delayed
// beyond the victim's termination, victim's queries recorded.
func runProbe(cfg AttackConfig) (*probeResult, error) {
	b, _, victim, t := cfg.roles()
	input := bitarray.Random(rand.New(rand.NewSource(cfg.Seed^0x5eed1247)), cfg.L)
	rec := &recorder{queried: make(map[int]bool)}
	spec := &sim.Spec{
		Config: sim.Config{
			N: cfg.N, T: t, L: cfg.L, MsgBits: cfg.msgBits(),
			Seed: cfg.Seed, Input: input,
		},
		NewPeer: func(id sim.PeerID) sim.Peer {
			p := cfg.NewPeer(id)
			if id == victim {
				return &recordingPeer{inner: p, rec: rec}
			}
			return p
		},
		Delays: adversary.NewTargetedSlow(adversary.NewHashDelay(cfg.Seed+3, 0, 0.5), b, slowDelay),
	}
	if _, err := des.New().Run(spec); err != nil {
		return nil, err
	}
	return &probeResult{victim: victim, input: input, queried: rec.queried}, nil
}

// runAttack executes E2 with bit target flipped and C corrupted to
// simulate input X1, then inspects the victim's output.
func runAttack(cfg AttackConfig, probe *probeResult, target int, rep *Report) (*Report, error) {
	b, corrupt, victim, t := cfg.roles()
	x2 := probe.input.Clone()
	x2.Set(target, !x2.Get(target))
	spec := &sim.Spec{
		Config: sim.Config{
			N: cfg.N, T: t, L: cfg.L, MsgBits: cfg.msgBits(),
			Seed: cfg.Seed, Input: x2,
		},
		NewPeer: cfg.NewPeer,
		Delays:  adversary.NewTargetedSlow(adversary.NewHashDelay(cfg.Seed+3, 0, 0.5), b, slowDelay),
		Faults: sim.Faults{Fates: sim.Byzantines(corrupt, func(id sim.PeerID, _ *sim.Knowledge) sim.Peer {
			// Behave exactly as the honest protocol would on X1.
			return &inputSimulator{inner: cfg.NewPeer(id), simulated: probe.input}
		})},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		return nil, err
	}
	vs := res.PerPeer[victim]
	rep.VictimTerminated = vs.Terminated
	rep.AttackQ = vs.QueryBits
	rep.Succeeded = vs.Terminated && vs.Output != nil &&
		vs.Output.Len() == cfg.L && vs.Output.Get(target) != x2.Get(target)
	return rep, nil
}

func pickUnqueried(queried map[int]bool, L int) int {
	for i := 0; i < L; i++ {
		if !queried[i] {
			return i
		}
	}
	return -1
}

// recorder accumulates the victim's queried indices.
type recorder struct {
	queried map[int]bool
}

// recordingPeer wraps the victim to observe its Query calls via a
// context interceptor.
type recordingPeer struct {
	inner sim.Peer
	rec   *recorder
}

var _ sim.Peer = (*recordingPeer)(nil)

// Init implements sim.Peer.
func (p *recordingPeer) Init(ctx sim.Context) {
	p.inner.Init(&recordingCtx{Context: ctx, rec: p.rec})
}

// OnMessage implements sim.Peer.
func (p *recordingPeer) OnMessage(from sim.PeerID, m sim.Message) { p.inner.OnMessage(from, m) }

// OnQueryReply implements sim.Peer.
func (p *recordingPeer) OnQueryReply(r sim.QueryReply) { p.inner.OnQueryReply(r) }

type recordingCtx struct {
	sim.Context
	rec *recorder
}

// Query implements sim.Context, recording the requested indices.
func (c *recordingCtx) Query(tag int, indices []int) {
	for _, i := range indices {
		c.rec.queried[i] = true
	}
	c.Context.Query(tag, indices)
}

// inputSimulator runs the honest protocol but rewrites every source reply
// to the simulated input — the corrupted peers of the Theorem 3.1 proof,
// which "act as if they are in execution E1".
type inputSimulator struct {
	inner     sim.Peer
	simulated *bitarray.Array
}

var _ sim.Peer = (*inputSimulator)(nil)

// Init implements sim.Peer.
func (p *inputSimulator) Init(ctx sim.Context) { p.inner.Init(ctx) }

// OnMessage implements sim.Peer.
func (p *inputSimulator) OnMessage(from sim.PeerID, m sim.Message) { p.inner.OnMessage(from, m) }

// OnQueryReply implements sim.Peer.
func (p *inputSimulator) OnQueryReply(r sim.QueryReply) {
	rewritten := bitarray.New(len(r.Indices))
	for j, idx := range r.Indices {
		rewritten.Set(j, p.simulated.Get(idx))
	}
	p.inner.OnQueryReply(sim.QueryReply{Tag: r.Tag, Indices: r.Indices, Bits: rewritten})
}
