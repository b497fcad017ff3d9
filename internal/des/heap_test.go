package des

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestEventQueueOrder drives the heap with random interleavings of push and
// pop, with few distinct times so most keys tie on at, and with slots reused
// from a free list as the engine does. Every pop must return what a model
// sorted by (at, seq) returns.
func TestEventQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var model []entry
		var free []int32
		var slots, seq int32
		for op := 0; op < 3000; op++ {
			if len(model) == 0 || rng.Intn(5) < 3 {
				slot := slots
				if n := len(free); n > 0 && rng.Intn(2) == 0 {
					slot, free = free[n-1], free[:n-1]
				} else {
					slots++
				}
				x := entry{at: float64(rng.Intn(4)) / 2, seq: int64(seq), slot: slot}
				seq++
				q.push(x)
				model = append(model, x)
				continue
			}
			slices.SortFunc(model, func(a, b entry) int {
				if a.before(b) {
					return -1
				}
				return 1
			})
			if h := q.head(); h != model[0] {
				t.Fatalf("seed %d op %d: head %+v, model %+v", seed, op, h, model[0])
			}
			got := q.pop()
			if got != model[0] {
				t.Fatalf("seed %d op %d: popped %+v, model %+v", seed, op, got, model[0])
			}
			model = model[1:]
			free = append(free, got.slot)
			if q.len() != len(model) {
				t.Fatalf("seed %d op %d: %d queued, model %d", seed, op, q.len(), len(model))
			}
		}
	}
}

// TestEventQueueTake checks the chooser's list against a slice model:
// entries stay in arrival order and take(i) removes the i-th.
func TestEventQueueTake(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var model []entry
	for op := 0; op < 5000; op++ {
		if len(model) == 0 || rng.Intn(2) == 0 {
			x := entry{slot: int32(op)}
			q.es = append(q.es, x)
			model = append(model, x)
			continue
		}
		i := rng.Intn(len(model))
		if got := q.take(i); got != model[i] {
			t.Fatalf("op %d: take(%d) = %+v, model %+v", op, i, got, model[i])
		}
		model = slices.Delete(model, i, i+1)
		if !slices.Equal(q.es, model) {
			t.Fatalf("op %d: list %v, model %v", op, q.es, model)
		}
	}
}

// TestEventLayout pins what makes the heap cheap: an entry the collector
// need not scan, and an event half the size of one that carried its key
// and its query reply inline.
func TestEventLayout(t *testing.T) {
	typ := reflect.TypeOf(entry{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("entry.%s is a %s: the heap must hold no pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(event{}); size > 56 {
		t.Errorf("event is %d bytes, want at most 56", size)
	}
}

// BenchmarkEventQueue pushes committee's peak of pending events at N=128
// (every peer's broadcast to the other 127 in flight) with random-unit
// times, then pops them all.
func BenchmarkEventQueue(b *testing.B) {
	const n = 128 * 127
	ats := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range ats {
		ats[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q eventQueue
		for j, at := range ats {
			q.push(entry{at: at, seq: int64(j), slot: int32(j)})
		}
		for q.len() > 0 {
			q.pop()
		}
	}
}
