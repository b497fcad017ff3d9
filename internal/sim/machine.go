package sim

import (
	"fmt"

	"repro/internal/bitarray"
)

// This file defines the resumable state-machine form of a protocol peer:
// instead of calling Context methods imperatively from inside handlers, a
// Machine consumes one Event per Step and emits an ordered list of Actions.
// AsPeer adapts a Machine to the Peer interface by replaying its actions
// through a real Context in emission order, so every runtime drives it
// unchanged. A Step is a function of (machine state, event) with no
// runtime re-entry, so its effects can be inspected as data.

// EventKind discriminates Machine inputs.
type EventKind uint8

// Machine event kinds. Start at 1 so the zero Event is invalid.
const (
	// EvInit is delivered exactly once, before any other event.
	EvInit EventKind = iota + 1
	// EvMessage delivers a peer-to-peer message (From, Msg valid).
	EvMessage
	// EvQueryReply delivers a source query response (Reply valid).
	EvQueryReply
)

// Event is one input to a state machine — the explicit-data form of the
// Peer interface's three handler methods.
type Event struct {
	Kind  EventKind
	From  PeerID // EvMessage only
	Msg   Message
	Reply QueryReply // EvQueryReply only
}

// ActionKind discriminates Machine outputs.
type ActionKind uint8

// Machine action kinds. Start at 1 so the zero Action is invalid.
const (
	// ActSend transmits Msg to To.
	ActSend ActionKind = iota + 1
	// ActBroadcast sends Msg to every other peer.
	ActBroadcast
	// ActQuery requests the source bits at Indices, echoing Tag.
	ActQuery
	// ActOutput records Out as the peer's claim about X.
	ActOutput
	// ActTerminate halts the peer.
	ActTerminate
	// ActLog emits the preformatted Text trace line.
	ActLog
	// ActPhase marks the peer entering phase Text (sim.MarkPhase).
	ActPhase
)

// Action is one output effect of a Step, applied to a Context in emission
// order by ApplyActions.
type Action struct {
	Kind    ActionKind
	To      PeerID
	Msg     Message
	Tag     int
	Indices []int
	Out     *bitarray.Array
	Text    string
}

// Env is the read-only execution environment a Step observes. It carries
// everything a Context exposes without side effects; the mutating half of
// Context becomes the Step's emitted actions.
type Env struct {
	ID      PeerID
	N       int
	T       int
	L       int
	MsgBits int
	// NowFn reports the current virtual (or scaled wall) time; it is a
	// function because the clock advances between Steps.
	NowFn func() float64
}

// Now returns the current time as reported by the runtime.
func (e *Env) Now() float64 {
	if e.NowFn == nil {
		return 0
	}
	return e.NowFn()
}

// EnvOf builds an Env view of a live Context.
func EnvOf(ctx Context) Env {
	return Env{
		ID: ctx.ID(), N: ctx.N(), T: ctx.T(), L: ctx.L(), MsgBits: ctx.MsgBits(),
		NowFn: ctx.Now,
	}
}

// Machine is a resumable event-driven protocol state machine: the
// explicit-effects twin of Peer. A scheduler calls Step once per event;
// the machine mutates only its own state and emits its effects through
// em, in the order it wants them applied. Step must not retain env or em
// past the call.
type Machine interface {
	Step(env *Env, ev Event, em *Emitter)
}

// Emitter accumulates one Step's actions. The backing buffer is reused
// across Steps by the driver (AsPeer), so a steady-state Step allocates
// nothing for the action list itself.
type Emitter struct {
	acts    []Action
	tracing bool
}

// Reset clears the emitter for a new Step, keeping capacity. tracing
// controls whether Logf calls are captured (callers pass the runtime's
// tracing state so disabled runs skip the formatting entirely).
func (e *Emitter) Reset(tracing bool) {
	for i := range e.acts {
		e.acts[i] = Action{} // drop payload references before reuse
	}
	e.acts = e.acts[:0]
	e.tracing = tracing
}

// Actions returns the accumulated actions. The slice is valid until the
// next Reset.
func (e *Emitter) Actions() []Action { return e.acts }

// Tracing reports whether Logf output is being captured, so machines can
// gate expensive trace-only computation the way Context users gate on the
// runtime's Logf no-op.
func (e *Emitter) Tracing() bool { return e.tracing }

// Send emits an ActSend.
func (e *Emitter) Send(to PeerID, m Message) {
	e.acts = append(e.acts, Action{Kind: ActSend, To: to, Msg: m})
}

// Broadcast emits an ActBroadcast.
func (e *Emitter) Broadcast(m Message) {
	e.acts = append(e.acts, Action{Kind: ActBroadcast, Msg: m})
}

// Query emits an ActQuery. The indices slice is retained until the
// actions are applied; emit a fresh slice per call (runtimes copy it when
// the query is actually issued, exactly as Context.Query does).
func (e *Emitter) Query(tag int, indices []int) {
	e.acts = append(e.acts, Action{Kind: ActQuery, Tag: tag, Indices: indices})
}

// Output emits an ActOutput recording the peer's claim about X.
func (e *Emitter) Output(out *bitarray.Array) {
	e.acts = append(e.acts, Action{Kind: ActOutput, Out: out})
}

// Terminate emits an ActTerminate.
func (e *Emitter) Terminate() {
	e.acts = append(e.acts, Action{Kind: ActTerminate})
}

// Logf captures a trace line. When tracing is disabled the call is free —
// no formatting, no capture — matching the gated Context.Logf no-op.
func (e *Emitter) Logf(format string, args ...any) {
	if !e.tracing {
		return
	}
	e.acts = append(e.acts, Action{Kind: ActLog, Text: fmt.Sprintf(format, args...)})
}

// MarkPhase emits an ActPhase.
func (e *Emitter) MarkPhase(name string) {
	e.acts = append(e.acts, Action{Kind: ActPhase, Text: name})
}

// Tracer is an optional Context extension reporting whether Logf output
// is currently consumed. Runtimes whose Logf is gated (des gates on
// Spec.Trace) implement it so machine drivers can skip capturing trace
// lines that would be discarded; absent the extension, drivers assume
// tracing is off (the netrt client's Logf is a no-op).
type Tracer interface {
	TracingEnabled() bool
}

// TracingEnabled reports ctx's tracing state via the Tracer extension.
func TracingEnabled(ctx Context) bool {
	if t, ok := ctx.(Tracer); ok {
		return t.TracingEnabled()
	}
	return false
}

// ApplyActions applies recorded actions to a Context in emission order.
// Because every action maps to exactly one Context call, a Machine driven
// through ApplyActions is byte-identical to a hand-written Peer making
// the same calls inline: crash-action accounting, delay-policy draw
// order, and observer emission all happen inside the Context methods.
func ApplyActions(ctx Context, acts []Action) {
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case ActSend:
			ctx.Send(a.To, a.Msg)
		case ActBroadcast:
			ctx.Broadcast(a.Msg)
		case ActQuery:
			ctx.Query(a.Tag, a.Indices)
		case ActOutput:
			ctx.Output(a.Out)
		case ActTerminate:
			ctx.Terminate()
		case ActLog:
			ctx.Logf("%s", a.Text)
		case ActPhase:
			MarkPhase(ctx, a.Text)
		}
	}
}

// machinePeer adapts a Machine to the Peer interface: each handler call
// becomes one Step whose actions are applied to the real Context
// immediately, in emission order.
type machinePeer struct {
	m   Machine
	ctx Context
	env Env
	em  Emitter
}

var _ Peer = (*machinePeer)(nil)

// AsPeer adapts a Machine to the Peer interface. Protocol constructors
// return AsPeer(machine) so every existing runtime, test, and golden
// fixture runs the state-machine implementation unchanged.
func AsPeer(m Machine) Peer { return &machinePeer{m: m} }

func (p *machinePeer) Init(ctx Context) {
	p.ctx = ctx
	p.env = EnvOf(ctx)
	p.step(Event{Kind: EvInit})
}

func (p *machinePeer) OnMessage(from PeerID, m Message) {
	p.step(Event{Kind: EvMessage, From: from, Msg: m})
}

func (p *machinePeer) OnQueryReply(r QueryReply) {
	p.step(Event{Kind: EvQueryReply, Reply: r})
}

func (p *machinePeer) step(ev Event) {
	p.em.Reset(TracingEnabled(p.ctx))
	p.m.Step(&p.env, ev, &p.em)
	ApplyActions(p.ctx, p.em.acts)
}
