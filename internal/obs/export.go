package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in its two interchange formats: the
// Prometheus text exposition format (served at /metrics) and a JSON
// snapshot (served at /snapshot.json), plus the expvar bridge for
// /debug/vars.

// Snapshot is a point-in-time JSON-able view of a registry.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family with all of its series.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one label-value combination's current state.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries the counter or gauge value; for histograms it is the
	// observation sum (Count/Buckets carry the rest).
	Value   float64          `json:"value"`
	Count   uint64           `json:"count,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one histogram bucket: Count observations at most
// UpperBound (non-cumulative). The overflow bucket has UpperBound +Inf,
// rendered as JSON string "+Inf" would break encoding/json, so it is
// omitted and derivable as Count - sum(buckets).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Snapshot captures the registry's current state. Returns nil on a nil
// registry, which marshals as JSON null / omits cleanly via omitempty.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := &Snapshot{}
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			child := f.children[key]
			f.mu.Unlock()
			ss := SeriesSnapshot{Labels: f.labelMap(key)}
			switch c := child.(type) {
			case *Counter:
				ss.Value = float64(c.Value())
			case *Gauge:
				ss.Value = float64(c.Value())
			case *Histogram:
				c.mu.Lock()
				ss.Value = c.sum
				ss.Count = c.count
				for i, b := range c.bounds {
					ss.Buckets = append(ss.Buckets, BucketSnapshot{UpperBound: b, Count: c.counts[i]})
				}
				c.mu.Unlock()
			}
			ms.Series = append(ms.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// Series returns the snapshot's value for a metric name and exact label
// set — a test and scripting convenience. The second result reports
// whether the series exists.
func (s *Snapshot) Series(name string, labels map[string]string) (SeriesSnapshot, bool) {
	if s == nil {
		return SeriesSnapshot{}, false
	}
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for _, ss := range m.Series {
			if len(ss.Labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if ss.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return ss, true
			}
		}
	}
	return SeriesSnapshot{}, false
}

func (f *family) sortedKeys() []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys
}

func (f *family) labelMap(key string) map[string]string {
	if len(f.labels) == 0 {
		return nil
	}
	vals := strings.Split(key, labelSep)
	m := make(map[string]string, len(f.labels))
	for i, name := range f.labels {
		m[name] = vals[i]
	}
	return m
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series, with
// histogram _bucket/_sum/_count expansion. Families and series are
// sorted, so output is deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			child := f.children[key]
			f.mu.Unlock()
			vals := strings.Split(key, labelSep)
			switch c := child.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, vals, "", ""), c.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, vals, "", ""), c.Value())
			case *Histogram:
				c.mu.Lock()
				cum := uint64(0)
				for i, bound := range c.bounds {
					cum += c.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, labelString(f.labels, vals, "le", formatFloat(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, labelString(f.labels, vals, "le", "+Inf"), c.count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, vals, "", ""), formatFloat(c.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, vals, "", ""), c.count)
				c.mu.Unlock()
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...}, optionally with one extra pair (the
// histogram "le" bound); empty when there are no labels at all.
func labelString(names, vals []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PublishExpvar exposes the registry's snapshot under the given expvar
// name, making it visible at /debug/vars alongside the runtime's memstats.
// Safe to call repeatedly: later calls for an already-published name are
// no-ops (expvar forbids re-publication).
func PublishExpvar(name string, r *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
