package des

// entry is a pending event as the queue orders it, by (at, seq) — a total
// order under Run, where seq is unique — with slot naming the event in the
// engine's slabs. It holds no pointer: sifting entries never dereferences
// an event, and the collector neither scans the heap nor barriers a move.
type entry struct {
	at   float64
	seq  int64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of entries with inlined comparisons, not
// container/heap's interface calls: every simulated send, query and
// delivery goes through push and pop. Under a chooser (RunChoices) it is a
// plain list in arrival order instead.
type eventQueue struct {
	es []entry
}

func (q *eventQueue) len() int { return len(q.es) }

// head returns the minimum entry without removing it. Caller checks len.
func (q *eventQueue) head() entry { return q.es[0] }

// push adds x, sifting it up: parents move down into the hole until x's
// place is found.
func (q *eventQueue) push(x entry) {
	q.es = appendDoubling(q.es, x)
	es := q.es
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = x
}

// take removes and returns the i-th entry of a queue kept as a plain list
// (see engine.push): what a chooser's decision names.
func (q *eventQueue) take(i int) entry {
	x := q.es[i]
	q.es = append(q.es[:i], q.es[i+1:]...)
	return x
}

// pop removes the minimum entry and sifts the last one down from the root:
// the smaller child moves up into the hole until its place is found.
func (q *eventQueue) pop() entry {
	es := q.es
	top, n := es[0], len(es)-1
	x, i := es[n], 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && es[r].before(es[l]) {
			m = r
		}
		if !es[m].before(x) {
			break
		}
		es[i] = es[m]
		i = m
	}
	es[i] = x
	q.es = es[:n]
	return top
}

// appendDoubling is append with the capacity doubled when full. append's
// own steps shrink to 1.25× for large slices, and for committee's ~16,000
// pending entries those extra copies cost more than the pointer-free heap
// saves.
func appendDoubling[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		t := make([]T, len(s), max(2*cap(s), 64))
		copy(t, s)
		s = t
	}
	return append(s, x)
}
