// Package trace records and analyzes structured execution traces: the
// event stream (sim.Observer) of either runtime. A Recorder implements
// sim.Observer, writing one JSON object per event (JSONL); Analyze folds a
// trace back into per-kind and per-peer summaries and a per-message-type
// histogram — the raw material for debugging protocol behavior ("who sent
// what, when, to whom") that aggregate Result metrics deliberately
// discard.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Recorder streams events as JSONL to an io.Writer.
type Recorder struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder wraps w. Call Flush when the run completes.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{w: bw, enc: json.NewEncoder(bw)}
}

// OnEvent implements sim.Observer.
func (r *Recorder) OnEvent(ev *sim.ObservedEvent) {
	if r.err != nil {
		return
	}
	r.n++
	r.err = r.enc.Encode(ev)
}

// Flush drains buffered output and reports the first write error.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Events returns the number of recorded events.
func (r *Recorder) Events() int { return r.n }

// Memory is an in-memory observer for tests and analysis without I/O.
type Memory struct {
	Events []sim.ObservedEvent
}

var _ sim.Observer = (*Memory)(nil)

// OnEvent implements sim.Observer.
func (m *Memory) OnEvent(ev *sim.ObservedEvent) { m.Events = append(m.Events, *ev) }

// Summary is the folded view of a trace.
type Summary struct {
	// Total counts events.
	Total int
	// ByKind counts events per kind.
	ByKind map[string]int
	// ByMsgType counts send events per message type.
	ByMsgType map[string]int
	// BitsByMsgType sums sent payload bits per message type.
	BitsByMsgType map[string]int
	// PerPeer aggregates per acting peer.
	PerPeer map[sim.PeerID]*PeerSummary
	// Span is the [first, last] event time.
	SpanStart, SpanEnd float64
}

// PeerSummary aggregates one peer's activity.
type PeerSummary struct {
	Sends, Delivers, Queries int
	QueryBits                int
	Crashed                  bool
	Terminated               bool
	TerminatedAt             float64
}

// Analyze folds a sequence of events.
func Analyze(events []sim.ObservedEvent) *Summary {
	s := &Summary{
		ByKind:        make(map[string]int),
		ByMsgType:     make(map[string]int),
		BitsByMsgType: make(map[string]int),
		PerPeer:       make(map[sim.PeerID]*PeerSummary),
	}
	for i, ev := range events {
		s.Total++
		s.ByKind[ev.Kind]++
		if i == 0 || ev.Time < s.SpanStart {
			s.SpanStart = ev.Time
		}
		if ev.Time > s.SpanEnd {
			s.SpanEnd = ev.Time
		}
		ps := s.PerPeer[ev.Peer]
		if ps == nil {
			ps = &PeerSummary{}
			s.PerPeer[ev.Peer] = ps
		}
		switch ev.Kind {
		case "send":
			ps.Sends++
			s.ByMsgType[ev.MsgType]++
			s.BitsByMsgType[ev.MsgType] += ev.Bits
		case "deliver":
			ps.Delivers++
		case "query":
			ps.Queries++
			ps.QueryBits += ev.Bits
		case "crash":
			ps.Crashed = true
		case "terminate":
			ps.Terminated = true
			ps.TerminatedAt = ev.Time
		}
	}
	return s
}

// Read parses a JSONL trace.
func Read(r io.Reader) ([]sim.ObservedEvent, error) {
	var out []sim.ObservedEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev sim.ObservedEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// Fprint renders a human-readable summary.
func (s *Summary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "events %d over t=[%.2f, %.2f]\n", s.Total, s.SpanStart, s.SpanEnd)
	for _, kind := range sortedKeys(s.ByKind) {
		fmt.Fprintf(w, "  %-10s %d\n", kind, s.ByKind[kind])
	}
	if len(s.ByMsgType) > 0 {
		fmt.Fprintln(w, "message types:")
		for _, mt := range sortedKeys(s.ByMsgType) {
			short := mt
			if i := strings.LastIndex(mt, "."); i >= 0 {
				short = mt[i+1:]
			}
			fmt.Fprintf(w, "  %-16s sends=%-8d bits=%d\n", short, s.ByMsgType[mt], s.BitsByMsgType[mt])
		}
	}
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
