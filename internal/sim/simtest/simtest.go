// Package simtest provides a recording sim.Context for protocol unit
// tests: a peer is driven by calling its Init, OnMessage and OnQueryReply
// directly, and the test reads back what it sent, queried and output.
package simtest

import (
	"math/rand"

	"repro/internal/bitarray"
	"repro/internal/sim"
)

// Broadcast is the To of a recorded Broadcast call.
const Broadcast sim.PeerID = -1

// Sent is one Send call, or one Broadcast call with To == Broadcast.
type Sent struct {
	To  sim.PeerID
	Msg sim.Message
}

// Query is one Query call.
type Query struct {
	Tag     int
	Indices []int
}

// Ctx is a sim.Context that records the peer's effects in call order.
// Now is always 0 and MsgBits is 64.
type Ctx struct {
	id      sim.PeerID
	n, t, l int
	rng     *rand.Rand

	Sent       []Sent
	Queries    []Query
	Out        *bitarray.Array // the last Output, nil before one
	Terminated bool
	Phases     []string // every MarkPhase name, in call order
}

var _ sim.Context = (*Ctx)(nil)

// New returns a context for peer id of n peers tolerating t faults over an
// L-bit input. Its Rand is seeded with id.
func New(id sim.PeerID, n, t, L int) *Ctx {
	return &Ctx{id: id, n: n, t: t, l: L, rng: rand.New(rand.NewSource(int64(id)))}
}

// Reset forgets everything recorded, keeping the lists' capacity.
func (c *Ctx) Reset() {
	clear(c.Sent)
	clear(c.Queries)
	c.Sent, c.Queries, c.Phases = c.Sent[:0], c.Queries[:0], c.Phases[:0]
	c.Out, c.Terminated = nil, false
}

func (c *Ctx) ID() sim.PeerID                    { return c.id }
func (c *Ctx) N() int                            { return c.n }
func (c *Ctx) T() int                            { return c.t }
func (c *Ctx) L() int                            { return c.l }
func (c *Ctx) MsgBits() int                      { return 64 }
func (c *Ctx) Send(to sim.PeerID, m sim.Message) { c.Sent = append(c.Sent, Sent{To: to, Msg: m}) }
func (c *Ctx) Broadcast(m sim.Message)           { c.Sent = append(c.Sent, Sent{To: Broadcast, Msg: m}) }
func (c *Ctx) Query(tag int, indices []int) {
	c.Queries = append(c.Queries, Query{Tag: tag, Indices: indices})
}
func (c *Ctx) Output(out *bitarray.Array) { c.Out = out }
func (c *Ctx) Terminate()                 { c.Terminated = true }
func (c *Ctx) Rand() *rand.Rand           { return c.rng }
func (c *Ctx) Now() float64               { return 0 }
func (c *Ctx) MarkPhase(name string)      { c.Phases = append(c.Phases, name) }
