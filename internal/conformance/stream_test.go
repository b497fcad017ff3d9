package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/download"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamRun runs c on rt with its event stream recorded, and returns the
// report and the stream; ok is false when the runtime does not run c.
func streamRun(t *testing.T, c *Case, rt Runtime) (rep *download.Report, events []sim.ObservedEvent, ok bool) {
	t.Helper()
	if !rt.Supports(c) {
		return nil, nil, false
	}
	opts, err := c.options()
	if err != nil {
		t.Fatal(err)
	}
	opts.TCP = rt == TCP
	var buf bytes.Buffer
	opts.TraceJSONL = &buf
	rep, err = download.Run(opts)
	if unsupported := (*download.UnsupportedError)(nil); errors.As(err, &unsupported) {
		return nil, nil, false
	}
	if err != nil {
		t.Fatalf("%s on %s: %v", c.Name, rt, err)
	}
	if events, err = trace.Read(&buf); err != nil {
		t.Fatalf("%s on %s: %v", c.Name, rt, err)
	}
	return rep, events, true
}

// TestStreamEqualsResult: on every corpus case, on des and on tcp, the
// event stream's own totals over the honest peers are the run's Result:
// each peer's query bits and Q, and M in messages (⌈bits/b⌉ a send) and
// in bits.
func TestStreamEqualsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("socket runtime corpus in -short mode")
	}
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatal(err)
	}
	ran := map[Runtime]int{}
	for i := range corpus.Results.Cases {
		c := &corpus.Results.Cases[i]
		for _, rt := range []Runtime{DES, TCP} {
			rep, events, ok := streamRun(t, c, rt)
			if !ok {
				continue
			}
			ran[rt]++
			queried := make([]int, c.N)
			var msgs, msgBits int
			for _, ev := range events {
				if !rep.PerPeer[ev.Peer].Honest {
					continue
				}
				switch ev.Kind {
				case "query":
					queried[ev.Peer] += ev.Bits
				case "send":
					msgs += max(1, (ev.Bits+c.MsgBits-1)/c.MsgBits)
					msgBits += ev.Bits
				}
			}
			q := 0
			for _, p := range rep.PerPeer {
				if p.Honest {
					q = max(q, queried[p.ID])
					if queried[p.ID] != p.QueryBits {
						t.Errorf("%s on %s: peer %d queried %d bits in the stream, %d in the result",
							c.Name, rt, p.ID, queried[p.ID], p.QueryBits)
					}
				}
			}
			if q != rep.Q || msgs != rep.Msgs || msgBits != rep.MsgBits {
				t.Errorf("%s on %s: the stream's Q=%d M=%d (%d bits), the result's Q=%d M=%d (%d bits)",
					c.Name, rt, q, msgs, msgBits, rep.Q, rep.Msgs, rep.MsgBits)
			}
		}
	}
	if ran[DES] == 0 || ran[TCP] == 0 {
		t.Fatalf("ran %v: the corpus has no case for a runtime", ran)
	}
}

// traffic is one send or query event as the runtimes must agree on it.
type traffic struct {
	kind, msg         string
	peer, other, bits int
}

// trafficOf is the multiset of ev's send and query events, and of its
// deliver events.
func trafficOf(events []sim.ObservedEvent) (sent, delivered map[traffic]int) {
	sent, delivered = map[traffic]int{}, map[traffic]int{}
	for _, ev := range events {
		k := traffic{ev.Kind, ev.MsgType, int(ev.Peer), int(ev.Other), ev.Bits}
		switch ev.Kind {
		case "send", "query":
			sent[k]++
		case "deliver":
			delivered[k]++
		}
	}
	return sent, delivered
}

// TestStreamDesTCPAgree: on the fault-free naive and committee cases of
// the corpus, whose sends do not depend on the schedule, des and tcp emit
// the same multiset of (kind, peer, other, msg, bits) over their send and
// query events; only the order may differ. Every tcp deliver matches a
// send of the same run.
func TestStreamDesTCPAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("socket runtime corpus in -short mode")
	}
	corpus, err := Load(fixturesDir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for i := range corpus.Results.Cases {
		c := &corpus.Results.Cases[i]
		if !c.FaultFree() || (c.Protocol != string(download.Naive) && c.Protocol != string(download.Committee)) {
			continue
		}
		_, desEvents, desOK := streamRun(t, c, DES)
		_, tcpEvents, tcpOK := streamRun(t, c, TCP)
		if !desOK || !tcpOK {
			continue
		}
		ran++
		desSent, _ := trafficOf(desEvents)
		tcpSent, tcpDelivered := trafficOf(tcpEvents)
		if !maps.Equal(desSent, tcpSent) {
			t.Errorf("%s: des and tcp differ in sends and queries:%s", c.Name, multisetDiff(desSent, tcpSent))
		}
		for d, n := range tcpDelivered {
			s := traffic{"send", d.msg, d.other, d.peer, d.bits}
			if tcpSent[s] < n {
				t.Errorf("%s: tcp delivered %d× %+v, sent %d×", c.Name, n, d, tcpSent[s])
			}
		}
	}
	if ran == 0 {
		t.Fatal("the corpus has no fault-free naive or committee case on both runtimes")
	}
}

// multisetDiff lists up to five entries whose counts differ.
func multisetDiff(des, tcp map[traffic]int) string {
	var out string
	shown := 0
	for i, m := range []map[traffic]int{des, tcp} {
		for k := range m {
			if _, both := des[k]; i == 1 && both {
				continue // listed with des's keys
			}
			if des[k] != tcp[k] && shown < 5 {
				out += fmt.Sprintf("\n  %+v: des %d, tcp %d", k, des[k], tcp[k])
				shown++
			}
		}
	}
	return out
}
