package des_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/source"
)

// The engine counts a message to a peer that can never read it (crashed
// for good, or terminated) at send and does not queue it. These cells pin
// everything such a message could still influence — the full sim.Result
// and the ordered observer log — against testdata/deadletter.json, which
// was captured from the engine that queued every send (the commit before
// the elision). Regenerate only for a deliberate semantic change:
//
//	go test ./internal/des -run TestDeadLetters -update-deadletters
var updateDeadLetters = flag.Bool("update-deadletters", false, "rewrite testdata/deadletter.json from the current engine")

const deadLetterPath = "testdata/deadletter.json"

// deadLetterPin is one cell's pinned outcome. Outputs are summarised
// ("X" equals the input, "wrong", "" none) and the observer log is kept
// as its length and a digest of its ordered lines.
type deadLetterPin struct {
	Result  sim.Result `json:"result"`
	Outputs []string   `json:"outputs"`
	LogLen  int        `json:"log_len"`
	LogSHA  string     `json:"log_sha256"`
}

// chatter broadcasts at start and again on every message it hears, and
// terminates after hearing id+1 messages: low ids are gone early while
// the others keep sending to them.
type chatter struct {
	ctx   sim.Context
	heard int
}

func newChatter(sim.PeerID) sim.Peer { return &chatter{} }

func (c *chatter) Init(ctx sim.Context) {
	c.ctx = ctx
	ctx.Broadcast(&ping{bits: 8})
}

func (c *chatter) OnMessage(sim.PeerID, sim.Message) {
	c.heard++
	if c.heard > int(c.ctx.ID()) {
		c.ctx.Output(bitarray.New(c.ctx.L()))
		c.ctx.Terminate()
		return
	}
	c.ctx.Broadcast(&ping{bits: 8})
}

func (c *chatter) OnQueryReply(sim.QueryReply) {}

// starver broadcasts at start and on the first two messages it hears,
// then waits for a message from every other peer, which a crashed peer
// never sends: the run starves. Peer 1 also queries the source.
type starver struct {
	ctx        sim.Context
	heard      map[sim.PeerID]bool
	broadcasts int
}

func newStarver(sim.PeerID) sim.Peer { return &starver{heard: map[sim.PeerID]bool{}} }

func (s *starver) Init(ctx sim.Context) {
	s.ctx = ctx
	s.broadcast()
	if ctx.ID() == 1 {
		ctx.Query(0, []int{0, 1, 2, 3})
	}
}

func (s *starver) broadcast() {
	if s.broadcasts < 3 {
		s.broadcasts++
		s.ctx.Broadcast(&ping{bits: 8})
	}
}

func (s *starver) OnMessage(from sim.PeerID, _ sim.Message) {
	s.heard[from] = true
	if len(s.heard) == s.ctx.N()-1 {
		s.ctx.Output(bitarray.New(s.ctx.L()))
		s.ctx.Terminate()
		return
	}
	s.broadcast()
}

func (s *starver) OnQueryReply(sim.QueryReply) {}

// toPeerDelay delays a message by its destination: messages to peer 0
// take slow, all others fast. Queries take a quarter unit.
type toPeerDelay struct{ slow, fast float64 }

func (d toPeerDelay) MessageDelay(_, to sim.PeerID, _ float64, _ int) float64 {
	if to == 0 {
		return d.slow
	}
	return d.fast
}
func (d toPeerDelay) QueryDelay(sim.PeerID, float64) float64 { return 0.25 }
func (d toPeerDelay) StartDelay(sim.PeerID) float64          { return 0 }

const churnDelay = 1.5

func deadLetterCells(t *testing.T) []specCase {
	crashSpec := func(newPeer func(sim.PeerID) sim.Peer, n, tt, l int, seed int64, faulty []sim.PeerID, crash sim.CrashPolicy) *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: n, T: tt, L: l, MsgBits: 64, Seed: seed},
			NewPeer: newPeer,
			Delays:  adversary.NewRandomUnit(seed + 1000003),
			Faults:  sim.FaultSpec{Model: sim.FaultCrash, Faulty: faulty, Crash: crash},
		}
	}
	// Peer 0 is dead from the start and every message to it is slow, so
	// the run's last queued events are dead letters: at t=4, 6 and 7 while
	// the last delivery is at t=6. Peer 1 crashes at t=3 in the middle of
	// a broadcast with its breaker open on a source that never heals, so
	// its DegradedTime is settled at the engine's final clock.
	starved := func(deadline float64) func() *sim.Spec {
		return func() *sim.Spec {
			return &sim.Spec{
				Config:   sim.Config{N: 4, T: 2, L: 8, MsgBits: 64, Seed: 21, Input: bitarray.New(8)},
				NewPeer:  newStarver,
				Delays:   toPeerDelay{slow: 4, fast: 3},
				Deadline: deadline,
				Faults: sim.FaultSpec{Model: sim.FaultCrash, Faulty: []sim.PeerID{0, 1},
					Crash: adversary.CrashMap{0: 0, 1: 6}},
				SourceFaults: mustPlan(t, "outage=0..1000,seed=3"),
				SourcePolicy: source.Policy{BreakerThreshold: 2, BreakerCooldown: 0.5, BaseBackoff: 0.1},
			}
		}
	}
	return []specCase{
		{"crash-majority-from-start", func() *sim.Spec {
			return crashSpec(crashk.NewFast, 16, 12, 512, 31, adversary.SpreadFaulty(16, 12), &adversary.CrashAll{Point: 0})
		}},
		{"crash-mid-broadcast", func() *sim.Spec {
			return crashSpec(crashk.New, 10, 4, 256, 32, []sim.PeerID{1, 4, 6, 9},
				adversary.CrashMap{1: 3, 4: 12, 6: 25, 9: 40})
		}},
		{"receivers-terminate-early", func() *sim.Spec {
			return &sim.Spec{
				Config:  sim.Config{N: 6, T: 0, L: 8, MsgBits: 64, Seed: 33, Input: bitarray.New(8)},
				NewPeer: newChatter,
				Delays:  adversary.NewRandomUnit(33 + 1000003),
			}
		}},
		{"churn-pending-rejoin", func() *sim.Spec {
			return &sim.Spec{
				Config:  sim.Config{N: 8, T: 2, L: 128, MsgBits: 64, Seed: 34},
				NewPeer: crashk.New,
				Delays:  adversary.NewFixed(churnDelay),
				Faults: sim.FaultSpec{Churn: []sim.ChurnPeer{
					{Peer: 2, CrashAfter: 5, Downtime: 1},
					{Peer: 5, CrashAfter: 9, Downtime: -1},
				}},
			}
		}},
		{"starved/no-deadline", starved(0)},
		{"starved/deadline-between-dead-letters", starved(6.5)},
		{"starved/deadline-cuts-a-delivery", starved(5)},
	}
}

// runPinned runs one cell on the serial loop and projects it onto its pin.
func runPinned(t *testing.T, spec *sim.Spec) (deadLetterPin, []sim.ObservedEvent, int, int) {
	t.Helper()
	log := &eventLog{}
	spec.Observer = log
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, queued, allocated, err := des.RunSerialCountingEvents(spec)
	if err != nil {
		t.Error(err)
	}
	input := spec.Config.ResolveInput()
	pin := deadLetterPin{Result: *res, LogLen: len(log.events)}
	pin.Result.PerPeer = append([]sim.PeerStats(nil), res.PerPeer...)
	for i := range pin.Result.PerPeer {
		ps := &pin.Result.PerPeer[i]
		switch {
		case ps.Output == nil:
			pin.Outputs = append(pin.Outputs, "")
		case ps.Output.Equal(input):
			pin.Outputs = append(pin.Outputs, "X")
		default:
			pin.Outputs = append(pin.Outputs, "wrong")
		}
		ps.Output = nil
	}
	h := sha256.New()
	for _, ev := range log.events {
		fmt.Fprintf(h, "%v %s %d %d %s %d %s\n", ev.Time, ev.Kind, ev.Peer, ev.Other, ev.MsgType, ev.Bits, ev.Name)
	}
	pin.LogSHA = hex.EncodeToString(h.Sum(nil))
	return pin, log.events, queued, allocated
}

func TestDeadLetters(t *testing.T) {
	cells := deadLetterCells(t)
	got := make(map[string]deadLetterPin, len(cells))
	for _, tc := range cells {
		pin, log, queued, allocated := runPinned(t, tc.spec())
		got[tc.name] = pin
		switch tc.name {
		case "crash-majority-from-start":
			// Twelve of sixteen peers never read anything, so most sends are
			// dead letters, and none of them may be queued: an engine that
			// queues every send queues more events than there are sends.
			if !pin.Result.Correct {
				t.Errorf("%s: %v", tc.name, pin.Result.Failures)
			}
			sends := 0
			for _, ev := range log {
				if ev.Kind == "send" {
					sends++
				}
			}
			if queued >= sends {
				t.Errorf("%s: %d events queued for %d sends", tc.name, queued, sends)
			}
			if allocated >= pin.Result.Events {
				t.Errorf("%s: %d event structs allocated for %d delivered events", tc.name, allocated, pin.Result.Events)
			}
		case "churn-pending-rejoin":
			if n := inFlightAcrossRejoin(log, 2); n == 0 {
				t.Errorf("%s: no message sent while peer 2 was down arrived after its rejoin", tc.name)
			}
		}
	}
	if *updateDeadLetters {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deadLetterPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(deadLetterPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]deadLetterPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", deadLetterPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the test runs %d", deadLetterPath, len(want), len(got))
	}
	for name, g := range got {
		// Compare in the pinned encoding: a nil and an empty slice are one
		// value there.
		gotJSON, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s diverged from the pinned run:\nwant: %s\ngot:  %s", name, wantJSON, gotJSON)
		}
	}
}

// inFlightAcrossRejoin counts the messages that were sent to peer while it
// was down and delivered to it after it rejoined. Delays are fixed, so a
// send's arrival time is known from the send.
func inFlightAcrossRejoin(log []sim.ObservedEvent, peer sim.PeerID) int {
	crashAt, rejoinAt := -1.0, -1.0
	type arrival struct {
		at   float64
		from sim.PeerID
	}
	due := map[arrival]int{}
	n := 0
	for _, ev := range log {
		switch {
		case ev.Kind == "crash" && ev.Peer == peer:
			crashAt = ev.Time
		case ev.Kind == "rejoin" && ev.Peer == peer:
			rejoinAt = ev.Time
		case ev.Kind == "send" && ev.Other == peer && crashAt >= 0 && rejoinAt < 0:
			chunks := max(1, (ev.Bits+63)/64)
			due[arrival{ev.Time + churnDelay*float64(chunks), ev.Peer}]++
		case ev.Kind == "deliver" && ev.Peer == peer && rejoinAt >= 0:
			if k := (arrival{ev.Time, ev.Other}); due[k] > 0 {
				due[k]--
				n++
			}
		}
	}
	return n
}
