package bitarray

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		a := New(n)
		if a.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, a.Len())
		}
		if a.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, a.Count())
		}
	}
}

func TestSetGet(t *testing.T) {
	a := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		a.Set(i, true)
	}
	for _, i := range idx {
		if !a.Get(i) {
			t.Errorf("bit %d not set", i)
		}
		if a.Bit(i) != 1 {
			t.Errorf("Bit(%d) = %d", i, a.Bit(i))
		}
	}
	if a.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", a.Count(), len(idx))
	}
	a.Set(64, false)
	if a.Get(64) {
		t.Error("bit 64 still set after clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	tests := []func(){
		func() { New(-1) },
		func() { New(10).Get(10) },
		func() { New(10).Get(-1) },
		func() { New(10).Set(10, true) },
		func() { New(10).Slice(5, 6) },
		func() { New(10).Slice(-1, 2) },
		func() { New(10).Gather([]int{3, 10}) },
		func() { New(10).Bits64(5, 6) },
		func() { New(100).Bits64(0, 65) },
		func() { New(10).Bits64(-1, 2) },
	}
	for i, fn := range tests {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestIndexPanicText: a single-bit access out of range panics with a value
// that prints as the text it always has, which is what a recovered peer
// panic is recorded as (dst's PanicValue is fmt.Sprint of it).
func TestIndexPanicText(t *testing.T) {
	for _, n := range []int{0, 10, 64, 100} {
		a, tr := New(n), NewTracker(n)
		for _, i := range []int{-1, n, n + 64, -65} {
			want := fmt.Sprintf("bitarray: index %d out of range of %d bits", i, n)
			for name, fn := range map[string]func(){
				"Get":   func() { a.Get(i) },
				"Bit":   func() { a.Bit(i) },
				"Set":   func() { a.Set(i, true) },
				"Known": func() { tr.Known(i) },
			} {
				func() {
					defer func() {
						if got := fmt.Sprint(recover()); got != want {
							t.Errorf("%s(%d) on %d bits panicked with %q, want %q", name, i, n, got, want)
						}
					}()
					fn()
				}()
			}
		}
	}
}

func TestFill(t *testing.T) {
	a := New(70)
	a.Fill(true)
	if a.Count() != 70 {
		t.Errorf("Count after Fill(true) = %d", a.Count())
	}
	a.Fill(false)
	if a.Count() != 0 {
		t.Errorf("Count after Fill(false) = %d", a.Count())
	}
}

func TestEqualAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Random(rng, 999)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(998, !b.Get(998))
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(New(998)) {
		t.Fatal("different lengths equal")
	}
}

func TestFirstDiff(t *testing.T) {
	a := New(200)
	b := New(200)
	if d, err := a.FirstDiff(b); err != nil || d != -1 {
		t.Fatalf("FirstDiff equal arrays = %d, %v", d, err)
	}
	b.Set(137, true)
	if d, err := a.FirstDiff(b); err != nil || d != 137 {
		t.Fatalf("FirstDiff = %d, %v, want 137", d, err)
	}
	b.Set(3, true)
	if d, _ := a.FirstDiff(b); d != 3 {
		t.Fatalf("FirstDiff = %d, want 3", d)
	}
	if _, err := a.FirstDiff(New(100)); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestSliceAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(rng, 500)
	for _, tc := range []struct{ start, length int }{
		{0, 0}, {0, 64}, {3, 61}, {100, 200}, {499, 1}, {0, 500}, {77, 13},
	} {
		s := a.Slice(tc.start, tc.length)
		for i := 0; i < tc.length; i++ {
			if s.Get(i) != a.Get(tc.start+i) {
				t.Fatalf("slice[%d,%d) wrong at %d", tc.start, tc.start+tc.length, i)
			}
		}
	}
	b := New(500)
	b.CopyFrom(a, 37, 101, 300)
	for i := 0; i < 300; i++ {
		if b.Get(101+i) != a.Get(37+i) {
			t.Fatalf("CopyFrom wrong at %d", i)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64, 65, 129, 1000} {
		a := Random(rng, n)
		b, err := FromBytes(a.Bytes())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !a.Equal(b) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, err := FromBytes(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := FromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	a := Random(rand.New(rand.NewSource(4)), 128)
	raw := a.Bytes()
	if _, err := FromBytes(raw[:len(raw)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	// A bit count whose word count wraps, and the largest ones: an error,
	// not a panic in the allocation.
	for _, n := range []uint64{1<<63 - 1, 1<<63 - 64, 1 << 63, 1<<64 - 1, 129} {
		hostile := binary.LittleEndian.AppendUint64(nil, n)
		hostile = append(hostile, make([]byte, 16)...)
		if _, err := FromBytes(hostile); err == nil {
			t.Errorf("%d bits in 16 bytes accepted", n)
		}
	}
}

func TestFromBools(t *testing.T) {
	vals := []bool{true, false, true, true, false}
	a := FromBools(vals)
	for i, v := range vals {
		if a.Get(i) != v {
			t.Errorf("bit %d = %v, want %v", i, a.Get(i), v)
		}
	}
}

func TestString(t *testing.T) {
	a := FromBools([]bool{true, false, true})
	if got := a.String(); got != "101" {
		t.Errorf("String() = %q", got)
	}
	long := New(100)
	if got := long.String(); len(got) < 64 {
		t.Errorf("long String() too short: %q", got)
	}
}

// Property: Bytes/FromBytes round-trips any bit pattern.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		a := FromBools(bits)
		b, err := FromBytes(a.Bytes())
		return err == nil && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Count equals the number of true values.
func TestQuickCount(t *testing.T) {
	f := func(bits []bool) bool {
		want := 0
		for _, b := range bits {
			if b {
				want++
			}
		}
		return FromBools(bits).Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FirstDiff returns the first index where two equal-length
// arrays differ.
func TestQuickFirstDiff(t *testing.T) {
	f := func(bits []bool, flip uint16) bool {
		a := FromBools(bits)
		b := a.Clone()
		if len(bits) == 0 {
			d, err := a.FirstDiff(b)
			return err == nil && d == -1
		}
		i := int(flip) % len(bits)
		b.Set(i, !b.Get(i))
		d, err := a.FirstDiff(b)
		return err == nil && d == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Slice composes with CopyFrom as identity.
func TestQuickSliceIdentity(t *testing.T) {
	f := func(bits []bool, startU, lenU uint16) bool {
		a := FromBools(bits)
		if len(bits) == 0 {
			return true
		}
		start := int(startU) % len(bits)
		length := int(lenU) % (len(bits) - start + 1)
		s := a.Slice(start, length)
		c := New(len(bits))
		c.CopyFrom(a, 0, 0, len(bits))
		c.CopyFrom(s, 0, start, length)
		return c.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
