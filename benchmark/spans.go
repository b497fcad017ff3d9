package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the system. Spans of one op share Op (workload/seed); Parent is the
// index of the span that caused this one, -1 at the top.
type span struct {
	Name    string  `json:"name"`
	Op      string  `json:"op,omitempty"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass calls it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its end
// function.
func (t *tracer) begin(name, op string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartUs: t.sinceUs()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndUs = t.sinceUs()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) sinceUs() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// fillSelfTimes sets each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func fillSelfTimes(spans []span) {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUs, s.EndUs})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := 0.0, s.StartUs
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfUs = s.EndUs - s.StartUs - covered
	}
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	fillSelfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
