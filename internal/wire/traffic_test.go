package wire_test

import (
	"maps"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// traffic marshals every send of a run, once per recipient, and sums the
// bytes by message type.
type traffic struct {
	t     *testing.T
	enc   map[sim.Message][]byte
	bytes map[string]int
}

func (tr *traffic) OnEvent(ev *sim.ObservedEvent) {
	if ev.Kind != "send" {
		return
	}
	raw, ok := tr.enc[ev.Msg]
	if !ok {
		var err error
		if raw, err = wire.Marshal(ev.Msg); err != nil {
			tr.t.Fatalf("peer %d sent %T: %v", ev.Peer, ev.Msg, err)
		}
		tr.enc[ev.Msg] = raw
	}
	tr.bytes[ev.MsgType] += len(raw)
}

// crashkFast is a crashk-fast download at tcp-crashk's N and T, seed 3,
// with the eight peers adversary.SpreadFaulty picks crashed from the
// start, as download.CrashImmediate places them.
func crashkFast(L int) testutil.Case {
	return testutil.Case{
		Name: "crashk-fast", N: 16, T: 8, L: L, Seed: 3, NewPeer: crashk.NewFast,
		Faults: testutil.CrashFaults(adversary.SpreadFaulty(16, 8), 0),
	}
}

// TestCrashkWireBytesPinned: one seeded crashk-fast download on des at
// tcp-crashk's N and T (N=16, T=8 crashed from the start, L=4096), every
// send marshalled as the socket runtime would put it on the wire. The
// bytes per message type are pinned beside the run's Q and its M in
// messages and bits. A codec change that grows the bytes fails here, and
// so does one that moves Q or M, which the encoding must never touch: the
// accounted sizes read the sets, not their bytes. A change that shrinks
// them re-pins the bytes and leaves Q and M as they are.
func TestCrashkWireBytesPinned(t *testing.T) {
	c := crashkFast(4096)
	spec := c.Spec()
	tr := &traffic{t: t, enc: make(map[sim.Message][]byte), bytes: make(map[string]int)}
	spec.Observer = tr
	res, err := des.New().Run(spec)
	if err != nil || !res.Correct {
		t.Fatalf("run: %v, %v", res, err)
	}
	// Corpus v4's encoding, a (gap, length) pair a range, put 654,732
	// bytes on the wire here: Req1 61,412, Req2 490,200, Resp1 35,420.
	want := map[string]int{
		"*crashk.Full":  62760,
		"*crashk.Req1":  36020,
		"*crashk.Req2":  287400,
		"*crashk.Resp1": 23548,
		"*crashk.Resp2": 4940,
	}
	t.Logf("wire bytes by type %v", tr.bytes)
	if !maps.Equal(tr.bytes, want) {
		t.Errorf("wire bytes by type %v, pinned %v", tr.bytes, want)
	}
	if res.Q != 636 || res.Msgs != 28635 || res.MsgBits != 7064598 {
		t.Errorf("Q %d, M %d messages, %d bits; pinned 636, 28635, 7064598", res.Q, res.Msgs, res.MsgBits)
	}
}
