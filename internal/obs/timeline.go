package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Timeline records span/event marks against a monotonically meaningful
// clock: virtual time on des, seconds since run start on sockets. The
// runtimes fill it through sim.TimelineObserver, a view of their event
// stream that keeps its lifecycle kinds. Marks are cheap (one slice
// append under a mutex) and every method is a no-op on a nil receiver.
//
// The JSONL dump uses the same field names as sim.ObservedEvent ("t",
// "kind", "peer", "name"), so a timeline file is one schema with a
// -tracejson trace, and cmd/drtrace reads both.
type Timeline struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int
}

// DefaultTimelineLimit bounds a timeline's memory: past it, new marks
// are counted as dropped instead of stored. Each event is ~64 bytes, so
// the default caps a runaway run at roughly 16 MB.
const DefaultTimelineLimit = 1 << 18

// Event is one timeline mark. Field names match sim.ObservedEvent so
// dumps are drtrace-readable.
type Event struct {
	// Time is virtual time (des) or seconds since run start (netrt).
	Time float64 `json:"t"`
	// Kind classifies the mark: "phase", "terminate", "crash", "rejoin",
	// "reconnect", "qretry", or another sim.ObservedEvent kind.
	Kind string `json:"kind"`
	// Peer is the acting peer, -1 for run-global marks.
	Peer int `json:"peer"`
	// Name is the phase name of a "phase" mark.
	Name string `json:"name,omitempty"`
}

// Span is one derived per-peer phase interval (see Spans).
type Span struct {
	Peer  int     `json:"peer"`
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// NewTimeline returns a timeline with the default event limit.
func NewTimeline() *Timeline { return &Timeline{limit: DefaultTimelineLimit} }

// NewTimelineLimit returns a timeline bounded to at most limit events.
func NewTimelineLimit(limit int) *Timeline {
	if limit <= 0 {
		limit = DefaultTimelineLimit
	}
	return &Timeline{limit: limit}
}

// Mark appends one event. No-op on a nil timeline.
func (t *Timeline) Mark(at float64, peer int, kind, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, Event{Time: at, Kind: kind, Peer: peer, Name: name})
	}
	t.mu.Unlock()
}

// Len returns the number of stored events (0 on nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of marks discarded past the limit.
func (t *Timeline) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the stored events (nil on a nil timeline).
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSONL writes one JSON object per event — a drtrace-compatible
// dump. A nil timeline writes nothing.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Spans folds the timeline's "phase" marks into per-peer intervals: a
// phase span runs from its mark to the peer's next phase mark, or to the
// peer's terminate/crash mark, or — for still-open spans — to the latest
// event time on the whole timeline. Spans are sorted by (peer, start).
func (t *Timeline) Spans() []Span {
	events := t.Events()
	if len(events) == 0 {
		return nil
	}
	end := events[0].Time
	for _, ev := range events {
		if ev.Time > end {
			end = ev.Time
		}
	}
	// Events arrive time-ordered per peer (each runtime's clock is
	// monotonic), so a single pass per peer suffices after a stable sort
	// by peer.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Peer < events[j].Peer })
	var spans []Span
	open := -1 // index into spans of the current peer's open span
	lastPeer := -1 << 30
	for _, ev := range events {
		if ev.Peer != lastPeer {
			open = -1
			lastPeer = ev.Peer
		}
		switch ev.Kind {
		case "phase":
			if open >= 0 {
				spans[open].End = ev.Time
			}
			spans = append(spans, Span{Peer: ev.Peer, Name: ev.Name, Start: ev.Time, End: end})
			open = len(spans) - 1
		case "terminate", "crash":
			if open >= 0 {
				spans[open].End = ev.Time
				open = -1
			}
		}
	}
	return spans
}
