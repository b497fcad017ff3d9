package adversary

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/sim"
)

// The strategy layer turns the hand-written Byzantine behaviors into a
// searchable space: a Strategy is a seeded program of per-message
// mutation ops, and a strategist peer runs the HONEST protocol internally
// while rewriting its outgoing traffic op by op. Well-formedness is
// preserved where it matters — ops that alter message contents go through
// the message's own Forge method, so forged messages parse and vote like
// honest ones but carry wrong values. This is strictly more general than
// the fixed attacks in the protocol packages (a Liar is the program
// [lie], an Equivocator is [equivocate]) and is what internal/dst's
// strategy search enumerates.

// Forgeable is implemented by protocol messages that support adversarial
// content mutation. Forge must return a WELL-FORMED deep copy carrying
// wrong values (receivers must not be able to reject it as malformed),
// and must draw all of its coins from r so executions stay reproducible.
type Forgeable interface {
	sim.Message
	Forge(r *rand.Rand) sim.Message
}

// Op is one per-message mutation in a strategy program.
type Op string

// The op alphabet. Ops that need Forgeable messages degrade to OpWithhold
// when the payload does not support forging — silence is always available
// to a Byzantine peer.
const (
	// OpDeliver sends the honest message unchanged (useful padding: it
	// controls the fraction of honest-looking traffic in a program).
	OpDeliver Op = "deliver"
	// OpWithhold drops the message entirely.
	OpWithhold Op = "withhold"
	// OpLie replaces the message with a forged variant, identical for
	// every receiver of a broadcast.
	OpLie Op = "lie"
	// OpEquivocate sends the honest message to some receivers and a
	// forged one to others, chosen per receiver by coin flip.
	OpEquivocate Op = "equivocate"
	// OpReplayStale re-sends the oldest previously sent message instead
	// of the current one (stale but authentic traffic).
	OpReplayStale Op = "replay-stale"
	// OpFlood sends the honest message and then a burst of junk, bounded
	// by the strategist's flood budget so executions stay finite.
	OpFlood Op = "flood"
)

// Ops lists the full op alphabet in canonical order.
func Ops() []Op {
	return []Op{OpDeliver, OpWithhold, OpLie, OpEquivocate, OpReplayStale, OpFlood}
}

// ValidOp reports whether op is in the alphabet.
func ValidOp(op Op) bool {
	for _, o := range Ops() {
		if o == op {
			return true
		}
	}
	return false
}

// Strategy is a seeded program of mutation ops. The k-th outgoing
// protocol message (counting per peer, broadcasts count once) is
// processed by Program[k mod len(Program)]; all mutation coins come from
// a rand stream derived from Seed and the peer id, so a (Strategy,
// schedule) pair reproduces an execution exactly.
type Strategy struct {
	Seed    int64
	Program []Op
}

// String renders the program compactly, e.g. "s42[lie,withhold]".
func (s Strategy) String() string {
	ops := make([]string, len(s.Program))
	for i, op := range s.Program {
		ops[i] = string(op)
	}
	return fmt.Sprintf("s%d[%s]", s.Seed, strings.Join(ops, ","))
}

// Validate reports malformed programs.
func (s Strategy) Validate() error {
	if len(s.Program) == 0 {
		return fmt.Errorf("adversary: empty strategy program")
	}
	for _, op := range s.Program {
		if !ValidOp(op) {
			return fmt.Errorf("adversary: unknown op %q", op)
		}
	}
	return nil
}

// RandomStrategy draws a program of 1–4 ops (uniform over the alphabet)
// for strategy search. Degenerate all-deliver programs are re-drawn: they
// are honest behavior and waste search budget.
func RandomStrategy(r *rand.Rand, seed int64) Strategy {
	ops := Ops()
	for {
		n := 1 + r.Intn(4)
		prog := make([]Op, n)
		aggressive := false
		for i := range prog {
			prog[i] = ops[r.Intn(len(ops))]
			if prog[i] != OpDeliver {
				aggressive = true
			}
		}
		if aggressive {
			return Strategy{Seed: seed, Program: prog}
		}
	}
}

// floodBudget bounds the total junk broadcasts one strategist may emit.
const floodBudget = 16

// NewStrategist returns a sim.Fate.Byzantine factory: each faulty
// peer runs honest(id) internally, with every outgoing Send/Broadcast
// rewritten by the strategy program. Queries, and hence the internal
// protocol's source view, stay honest — the adversary lies on the wire,
// not to itself.
func (s Strategy) NewStrategist(honest func(sim.PeerID) sim.Peer) func(sim.PeerID, *sim.Knowledge) sim.Peer {
	return func(id sim.PeerID, k *sim.Knowledge) sim.Peer {
		return &strategist{
			inner: honest(id),
			strat: s,
			rng:   rand.New(rand.NewSource(s.Seed ^ (int64(id)+1)*0x9e3779b97f4a7c)),
			flood: floodBudget,
		}
	}
}

// strategist is the wrapping Byzantine peer.
type strategist struct {
	inner sim.Peer
	strat Strategy
	rng   *rand.Rand
	sends int // protocol messages processed (indexes the program)
	flood int
	// stale holds previously sent honest messages for OpReplayStale.
	stale []sim.Message
}

var _ sim.Peer = (*strategist)(nil)

// Init implements sim.Peer.
func (a *strategist) Init(ctx sim.Context) {
	a.inner.Init(&strategistCtx{Context: ctx, a: a})
}

// OnMessage implements sim.Peer.
func (a *strategist) OnMessage(from sim.PeerID, m sim.Message) { a.inner.OnMessage(from, m) }

// OnQueryReply implements sim.Peer.
func (a *strategist) OnQueryReply(r sim.QueryReply) { a.inner.OnQueryReply(r) }

// strategistCtx intercepts outgoing traffic; everything else passes
// through to the runtime's context.
type strategistCtx struct {
	sim.Context
	a *strategist
}

// nextOp advances the program counter.
func (a *strategist) nextOp() Op {
	op := a.strat.Program[a.sends%len(a.strat.Program)]
	a.sends++
	return op
}

// forge returns a forged variant of m, or nil when m cannot be forged.
func (a *strategist) forge(m sim.Message) sim.Message {
	if f, ok := m.(Forgeable); ok {
		return f.Forge(a.rng)
	}
	return nil
}

// apply runs one op for message m toward the receivers in `to`.
func (c *strategistCtx) apply(m sim.Message, to []sim.PeerID) {
	a := c.a
	switch op := a.nextOp(); op {
	case OpWithhold:
		return
	case OpLie:
		forged := a.forge(m)
		if forged == nil {
			return // unforgeable: withhold
		}
		for _, id := range to {
			c.Context.Send(id, forged)
		}
		return
	case OpEquivocate:
		forged := a.forge(m)
		if forged == nil {
			return
		}
		for _, id := range to {
			if a.rng.Intn(2) == 0 {
				c.Context.Send(id, m)
			} else {
				c.Context.Send(id, forged)
			}
		}
		return
	case OpReplayStale:
		if len(a.stale) > 0 {
			old := a.stale[0]
			for _, id := range to {
				c.Context.Send(id, old)
			}
		}
		return
	case OpFlood:
		for _, id := range to {
			c.Context.Send(id, m)
		}
		for i := 0; i < 3 && a.flood > 0; i++ {
			a.flood--
			c.Context.Broadcast(&Junk{Bits: 1 + a.rng.Intn(256)})
		}
		return
	default: // OpDeliver
		for _, id := range to {
			c.Context.Send(id, m)
		}
		return
	}
}

// record keeps a copy of an honest outgoing message for OpReplayStale,
// bounded so long executions don't accumulate unbounded state.
func (a *strategist) record(m sim.Message) {
	if len(a.stale) < 8 {
		a.stale = append(a.stale, m)
	}
}

// Send implements sim.Context.
func (c *strategistCtx) Send(to sim.PeerID, m sim.Message) {
	c.a.record(m)
	c.apply(m, []sim.PeerID{to})
}

// Broadcast implements sim.Context. The whole broadcast is ONE program
// step (so equivocate can split receivers), matching how the hand-written
// attacks structure their sends.
func (c *strategistCtx) Broadcast(m sim.Message) {
	c.a.record(m)
	n := c.Context.N()
	self := c.Context.ID()
	to := make([]sim.PeerID, 0, n-1)
	for i := 0; i < n; i++ {
		if sim.PeerID(i) != self {
			to = append(to, sim.PeerID(i))
		}
	}
	c.apply(m, to)
}

// ParseProgram parses a comma-separated op list ("lie,withhold").
func ParseProgram(s string) ([]Op, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("adversary: empty program")
	}
	parts := strings.Split(s, ",")
	prog := make([]Op, 0, len(parts))
	for _, p := range parts {
		op := Op(strings.TrimSpace(p))
		if !ValidOp(op) {
			known := make([]string, 0, len(Ops()))
			for _, o := range Ops() {
				known = append(known, string(o))
			}
			sort.Strings(known)
			return nil, fmt.Errorf("adversary: unknown op %q (known: %s)", op, strings.Join(known, ", "))
		}
		prog = append(prog, op)
	}
	return prog, nil
}
