package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Lanes renders per-peer event lanes over bucketed time — a compact
// visual of an execution's shape (drtrace -timeline): when each peer was
// active, when it queried, crashed, or terminated.
//
//	0 |S=q*===*=========T     |
//	1 |S=q*==*===X           |
//
// Legend: S start, q query issued, r query reply, * message delivery,
// s send burst, X crash, T terminate, = idle within an active span.
// When several event kinds land in one bucket the most significant one
// (X > T > S > q > r > * > s) is shown.
func Lanes(events []sim.ObservedEvent, width int) string {
	if len(events) == 0 {
		return "(empty trace)\n"
	}
	if width < 10 {
		width = 10
	}
	start, end := events[0].Time, events[0].Time
	peerSet := map[sim.PeerID]bool{}
	for _, ev := range events {
		if ev.Time < start {
			start = ev.Time
		}
		if ev.Time > end {
			end = ev.Time
		}
		peerSet[ev.Peer] = true
	}
	span := end - start
	if span <= 0 {
		span = 1
	}
	bucket := func(t float64) int {
		b := int((t - start) / span * float64(width-1))
		if b < 0 {
			b = 0
		}
		if b >= width {
			b = width - 1
		}
		return b
	}

	rank := map[byte]int{'s': 1, '*': 2, 'r': 3, 'q': 4, 'S': 5, 'T': 6, 'X': 7}
	glyph := map[string]byte{
		"start": 'S', "send": 's', "deliver": '*',
		"query": 'q', "qreply": 'r', "crash": 'X', "terminate": 'T',
	}

	lanes := map[sim.PeerID][]byte{}
	last := map[sim.PeerID]int{}
	for p := range peerSet {
		lanes[p] = make([]byte, width)
		for i := range lanes[p] {
			lanes[p][i] = ' '
		}
	}
	for _, ev := range events {
		g, ok := glyph[ev.Kind]
		if !ok {
			continue
		}
		b := bucket(ev.Time)
		lane := lanes[ev.Peer]
		if rank[g] > rank[lane[b]] {
			lane[b] = g
		}
		if b > last[ev.Peer] {
			last[ev.Peer] = b
		}
	}
	// Fill idle gaps within each peer's active span.
	for p, lane := range lanes {
		for i := 0; i <= last[p]; i++ {
			if lane[i] == ' ' {
				lane[i] = '='
			}
		}
	}

	ids := make([]sim.PeerID, 0, len(lanes))
	for p := range lanes {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "t = [%.2f, %.2f], one column ≈ %.2f\n", start, end, span/float64(width-1))
	for _, p := range ids {
		fmt.Fprintf(&sb, "%3d |%s|\n", p, string(lanes[p]))
	}
	sb.WriteString("legend: S start  q query  r reply  * deliver  s send  X crash  T terminate\n")
	return sb.String()
}
