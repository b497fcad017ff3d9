package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// E1Cells sweeps n for the single-crash protocol: the victim, peer n/2,
// crashes at a seeded point in its first 3n actions.
func E1Cells(cfg Config) []Cell {
	L, ns := 1<<16, []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		L, ns = 1<<12, []int{4, 8, 16}
	}
	var cells []Cell
	for _, n := range ns {
		victim := []sim.PeerID{sim.PeerID(n / 2)}
		cells = append(cells, Cell{fmt.Sprintf("n=%d", n), &sim.Spec{
			Config:  config(cfg.Seed, n, 1, L),
			NewPeer: crash1.New,
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(n)),
			Faults:  sim.Faults{Fates: adversary.NewCrashRandom(cfg.Seed, victim, 3*n)},
		}})
	}
	return cells
}

// e1Crash1 sweeps n for the single-crash protocol (Theorem 2.3). The
// series to reproduce: Q tracks L/n + L/(n(n−1)) — the per-peer load is
// inversely proportional to n and the reassignment term is second order.
func e1Crash1(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"n", "L", "Q", "L/n", "Q·n/L", "time", "msgs"},
		Notes: []string{
			"crash point randomized; Q·n/L ≈ 1 + 1/(n−1) is the theorem's shape",
		},
	}
	for _, c := range E1Cells(cfg) {
		res, err := cfg.run(c)
		if err != nil {
			return nil, err
		}
		n, L := c.Spec.Config.N, c.Spec.Config.L
		t.AddRow(itoa(n), itoa(L), itoa(res.Q), itoa(L/n),
			fratio(float64(res.Q)*float64(n), float64(L)), ftoa(res.Time), itoa(res.Msgs))
	}
	return t, nil
}

// E2Cells sweeps the crash fraction β for Algorithm 2: the t faulty peers
// crash at seeded points in their first 20n actions.
func E2Cells(cfg Config) []Cell {
	n, L := 32, 1<<16
	if cfg.Quick {
		n, L = 16, 1<<12
	}
	var cells []Cell
	for _, beta := range []float64{0.0, 0.1, 0.25, 0.5, 0.75, 0.9} {
		tf := int(beta * float64(n))
		faulty := adversary.SpreadFaulty(n, tf)
		cells = append(cells, Cell{fmt.Sprintf("beta=%.2f", beta), &sim.Spec{
			Config:  config(cfg.Seed, n, tf, L),
			NewPeer: crashk.New,
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(tf)),
			Faults:  sim.Faults{Fates: adversary.NewCrashRandom(cfg.Seed, faulty, 20*n)},
		}})
	}
	return cells
}

// e2CrashKBeta sweeps the crash fraction β for Algorithm 2 (Theorem
// 2.13). The series: Q·(n−t)/L stays Θ(1) for ANY β < 1 — the paper's
// headline deterministic result, impossible in the Byzantine model.
func e2CrashKBeta(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"beta", "n", "t", "Q", "L/(n-t)", "Q·(n-t)/L", "phases~", "time"},
		Notes: []string{
			"all t faulty peers crash at random points; Q·(n−t)/L flat ⇒ optimal for every β",
		},
	}
	for _, c := range E2Cells(cfg) {
		trace := newQueryTrace()
		c.Spec.NewPeer = trace.wrapFactory(c.Spec.NewPeer)
		res, err := cfg.run(c)
		if err != nil {
			return nil, err
		}
		n, tf, L := c.Spec.Config.N, c.Spec.Config.T, c.Spec.Config.L
		t.AddRow(strings.TrimPrefix(c.Name, "beta="), itoa(n), itoa(tf), itoa(res.Q), itoa(L/(n-tf)),
			fratio(float64(res.Q)*float64(n-tf), float64(L)),
			itoa(trace.maxPhase()), ftoa(res.Time))
	}
	return t, nil
}

// e3Decay traces per-phase query volume for Algorithm 2, which mirrors
// the unknown-bit count at each phase start (Claim 4: decay by t/n per
// phase). Observed via the protocol's phase-numbered query tags.
func e3Decay(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"phase", "query-bits(all peers)", "decay-vs-prev", "(t/n) target"},
		Notes: []string{
			"phase r query volume ≈ unknown bits at phase start; geometric decay at rate ≈ β",
			"phase 0 row aggregates the final direct queries (tag −1)",
		},
	}
	n, L := 16, 1<<16
	if cfg.Quick {
		L = 1 << 13
	}
	tf := n / 2
	trace := newQueryTrace()
	_, err := cfg.run(Cell{"decay", &sim.Spec{
		Config:  config(cfg.Seed, n, tf, L),
		NewPeer: trace.wrapFactory(crashk.New),
		Delays:  adversary.NewRandomUnit(cfg.Seed + 5),
		Faults:  crash(adversary.SpreadFaulty(n, tf), 0),
	}})
	if err != nil {
		return nil, err
	}
	beta := float64(tf) / float64(n)
	prev := 0
	for _, tag := range trace.tags() {
		bits := trace.bits[tag]
		decay := "-"
		if tag > 1 && prev > 0 {
			decay = fratio(float64(bits), float64(prev))
		}
		label := itoa(tag)
		if tag == -1 {
			label = "final"
		}
		t.AddRow(label, itoa(bits), decay, ftoa(beta))
		if tag >= 1 {
			prev = bits
		}
	}
	return t, nil
}

// E9Cells sweeps the message size b for the fast Algorithm 2 under unit
// latencies, with a quarter of the peers crashed at start.
func E9Cells(cfg Config) []Cell {
	n, L := 16, 1<<16
	if cfg.Quick {
		n, L = 8, 1<<12
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	bs := []int{64, 256, 1024, 4096, L / n, L}
	slices.Sort(bs)
	var cells []Cell
	for _, b := range slices.Compact(bs) {
		cells = append(cells, Cell{fmt.Sprintf("b=%d", b), &sim.Spec{
			Config:  sim.Config{N: n, T: tf, L: L, MsgBits: b, Seed: cfg.Seed},
			NewPeer: crashk.NewFast,
			Delays:  adversary.NewFixed(1.0), // worst-case unit latency
			Faults:  crash(faulty, 0),
		}})
	}
	return cells
}

// e9TimeVsB sweeps the message-size parameter b: the time complexity of
// Theorem 2.13 is O(L/(nb) + n), a hyperbola in b with an n-floor.
func e9TimeVsB(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"b", "time", "msgs", "L/(n·b)"},
		Notes:   []string{"time falls hyperbolically in b, then hits the Θ(phases) floor"},
	}
	for _, c := range E9Cells(cfg) {
		res, err := cfg.run(c)
		if err != nil {
			return nil, err
		}
		n, L, b := c.Spec.Config.N, c.Spec.Config.L, c.Spec.Config.MsgBits
		t.AddRow(itoa(b), ftoa(res.Time), itoa(res.Msgs), fratio(float64(L), float64(n*b)))
	}
	return t, nil
}

// A3Cells runs base and fast Algorithm 2, named "<variant>-slow=<delay>",
// where the theorem's proof targets: t/3 peers crash mid-answer, and more
// honest peers answer slowly than an n−t−1 quorum can leave out.
func A3Cells(cfg Config) []Cell {
	n, L := 24, 1<<13
	if cfg.Quick {
		n, L = 12, 1<<11
	}
	tf := n / 2
	crashed := adversary.SpreadFaulty(n, tf/3)
	// Slow honest peers: more than can be excluded from an n−t−1 quorum,
	// so the base variant's stage-3 wait must include a slow answer.
	var slow []sim.PeerID
	for i := 0; len(slow) < n/2+1 && i < n; i++ {
		if id := sim.PeerID(i); !slices.Contains(crashed, id) {
			slow = append(slow, id)
		}
	}
	// Crash inside the stage-1 answer loop: the victims have answered a
	// few peers (who therefore hold their bits and can supply them in
	// stage 3) but not the rest.
	crashPoint := 2*n + 5
	var cells []Cell
	for _, slowDelay := range []float64{5, 20, 80} {
		for _, variant := range []struct {
			name    string
			factory func(sim.PeerID) sim.Peer
		}{{"base", crashk.New}, {"fast", crashk.NewFast}} {
			cells = append(cells, Cell{fmt.Sprintf("%s-slow=%.2f", variant.name, slowDelay), &sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: variant.factory,
				Delays: adversary.NewTargetedSlow(
					adversary.NewRandom(cfg.Seed, 0.1, 0.5), slow, slowDelay),
				Faults: crash(crashed, crashPoint),
			}})
		}
	}
	return cells
}

// a3FastVariant compares base Algorithm 2 with the Theorem 2.13
// modification in the scenario the theorem's proof targets: the faulty
// peers crash mid-broadcast (so some honest peers heard them and can
// supply their bits), and a slice of the honest peers is slow enough that
// the base variant's stage-3 quorum must wait for a slow responder. The
// fast variant exits stage 3 the moment the bits it asked about are
// known — long before the quorum completes — cutting the per-phase wait.
func a3FastVariant(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"slow-delay", "variant", "Q", "time", "msgs"},
		Notes: []string{
			"t/3 peers crash mid-answer (some peers hold their bits); over half the honest peers answer slowly",
			"with crash-at-start faults the variants behave identically (nobody can supply the bits); this scenario is where the modification pays",
		},
	}
	for _, c := range A3Cells(cfg) {
		res, err := cfg.run(c)
		if err != nil {
			return nil, err
		}
		variant, slowDelay, _ := strings.Cut(c.Name, "-slow=")
		t.AddRow(slowDelay, variant, itoa(res.Q), ftoa(res.Time), itoa(res.Msgs))
	}
	return t, nil
}

// queryTrace observes Query calls across all peers, keyed by tag.
// Algorithm 2 tags queries with the phase number (−1 for the final
// direct queries), so the trace exposes per-phase volumes.
type queryTrace struct {
	bits map[int]int
}

func newQueryTrace() *queryTrace { return &queryTrace{bits: make(map[int]int)} }

func (qt *queryTrace) wrapFactory(inner func(sim.PeerID) sim.Peer) func(sim.PeerID) sim.Peer {
	return func(id sim.PeerID) sim.Peer {
		return &tracedPeer{inner: inner(id), qt: qt}
	}
}

func (qt *queryTrace) tags() []int {
	out := make([]int, 0, len(qt.bits))
	for tag := range qt.bits {
		out = append(out, tag)
	}
	sort.Ints(out)
	// Put the final (-1) tag last.
	if len(out) > 0 && out[0] == -1 {
		out = append(out[1:], -1)
	}
	return out
}

func (qt *queryTrace) maxPhase() int {
	m := 0
	for tag := range qt.bits {
		if tag > m {
			m = tag
		}
	}
	return m
}

type tracedPeer struct {
	inner sim.Peer
	qt    *queryTrace
}

var _ sim.Peer = (*tracedPeer)(nil)

func (p *tracedPeer) Init(ctx sim.Context)                     { p.inner.Init(&tracedCtx{Context: ctx, qt: p.qt}) }
func (p *tracedPeer) OnMessage(from sim.PeerID, m sim.Message) { p.inner.OnMessage(from, m) }
func (p *tracedPeer) OnQueryReply(r sim.QueryReply)            { p.inner.OnQueryReply(r) }

type tracedCtx struct {
	sim.Context
	qt *queryTrace
}

func (c *tracedCtx) Query(tag int, indices []int) {
	c.qt.bits[tag] += len(indices)
	c.Context.Query(tag, indices)
}
