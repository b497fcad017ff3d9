package des

// eventQueue is a binary min-heap over (at, seq) with inlined comparisons.
// It replaces container/heap on the engine's hottest path: every simulated
// send, query, and delivery goes through push/pop, and the interface-based
// heap spent a large fraction of engine CPU in indirect Less/Swap calls.
// The ordering key (at, seq) is a total order, so pop sequence — and hence
// every execution — is identical to the container/heap implementation.
type eventQueue struct {
	es []*event
}

func (q *eventQueue) len() int { return len(q.es) }

// head returns the minimum event without removing it. Caller checks len.
func (q *eventQueue) head() *event { return q.es[0] }

func (q *eventQueue) push(ev *event) {
	q.es = append(q.es, ev)
	// Sift up.
	es := q.es
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p, c := es[parent], es[i]
		if p.at < c.at || (p.at == c.at && p.seq < c.seq) {
			break
		}
		es[parent], es[i] = c, p
		i = parent
	}
}

// take removes and returns the i-th event of a queue kept as a plain list
// (see engine.push): what a chooser's decision names.
func (q *eventQueue) take(i int) *event {
	ev := q.es[i]
	q.es = append(q.es[:i], q.es[i+1:]...)
	return ev
}

func (q *eventQueue) pop() *event {
	es := q.es
	top := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = nil
	q.es = es[:n]
	if n > 1 {
		q.siftDown()
	}
	return top
}

func (q *eventQueue) siftDown() {
	es := q.es
	n := len(es)
	i := 0
	cur := es[0]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		mv := es[l]
		if r := l + 1; r < n {
			rv := es[r]
			if rv.at < mv.at || (rv.at == mv.at && rv.seq < mv.seq) {
				min, mv = r, rv
			}
		}
		if cur.at < mv.at || (cur.at == mv.at && cur.seq < mv.seq) {
			break
		}
		es[i], es[min] = mv, cur
		i = min
	}
}
