package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// The Resp2 codec against the encoder it replaced. A Resp2 used to be one
// list of items, each a peer and either a me-neither flag or values;
// oldItem and oldMarshalResp2 are that message and its encoder. They are
// the definition of the bytes: the message is now two lists, and the
// encoder must merge them back into exactly this sequence.

type oldItem struct {
	Q         sim.PeerID
	MeNeither bool
	Indices   intset.Set
	Values    *bitarray.Array
}

func oldMarshalResp2(phase int, items []oldItem) []byte {
	w := writer{}
	w.byte(tagCrashkResp2)
	w.uvarint(uint64(phase))
	w.uvarint(uint64(len(items)))
	for _, it := range items {
		w.uvarint(uint64(it.Q))
		if it.MeNeither {
			w.byte(1)
			continue
		}
		w.byte(0)
		w.set(it.Indices)
		w.bits(it.Values)
	}
	return w.buf
}

// split is the same answer as the message carries it now.
func split(phase int, items []oldItem) *crashk.Resp2 {
	m := &crashk.Resp2{Phase: phase, IdxBits: 12}
	var neither intset.Builder
	for _, it := range items {
		if it.MeNeither {
			neither.Add(int(it.Q))
			continue
		}
		m.Items = append(m.Items, crashk.Resp2Item{Q: it.Q, Indices: it.Indices, Values: it.Values})
	}
	m.MeNeither = neither.Set()
	return m
}

// randomAnswer draws an answer about up to 300 peers in increasing order:
// runs of me-neither peers, me-neither singletons, and answered items in
// ones and twos — first, last and between runs as they fall.
func randomAnswer(rng *rand.Rand) []oldItem {
	var items []oldItem
	q := rng.Intn(3) * rng.Intn(100)
	for len(items) < 300 && rng.Intn(12) > 0 {
		neither := rng.Intn(2) == 0
		k := 1 + rng.Intn(2)
		if neither && rng.Intn(2) == 0 {
			k = 2 + rng.Intn(40) // a run
		}
		for ; k > 0 && len(items) < 300; k-- {
			it := oldItem{Q: sim.PeerID(q), MeNeither: neither}
			if !neither {
				var b intset.Builder
				for x := rng.Intn(20); x < 4096 && rng.Intn(6) > 0; {
					hi := x + 1 + rng.Intn(30)
					b.AddRange(x, hi)
					x = hi + 1 + rng.Intn(200)
				}
				it.Indices = b.Set()
				it.Values = bitarray.Random(rng, it.Indices.Len())
			}
			items = append(items, it)
			q++
		}
		q += rng.Intn(3) * rng.Intn(20) // a gap, or the next group right after
	}
	return items
}

// TestResp2BytesMatchOldEncoder: every answer encodes to the old encoder's
// bytes, and decodes to the same two lists, which re-encode to the same
// bytes again.
func TestResp2BytesMatchOldEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	shapes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		items := randomAnswer(rng)
		if trial == 0 {
			items = nil
		}
		phase := rng.Intn(70)
		want := oldMarshalResp2(phase, items)
		msg := split(phase, items)
		got, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d items, %d supplied, me-neither %v:\nencoded % x\nold     % x",
				len(items), len(msg.Items), msg.MeNeither, got, want)
		}
		back, err := Unmarshal(got, 4096)
		if err != nil {
			t.Fatalf("%d items: own encoding refused: %v", len(items), err)
		}
		dec := back.(*crashk.Resp2)
		if !slices.Equal(dec.MeNeither.Ranges(), msg.MeNeither.Ranges()) || len(dec.Items) != len(msg.Items) {
			t.Fatalf("decoded me-neither %v and %d items, sent %v and %d", dec.MeNeither, len(dec.Items), msg.MeNeither, len(msg.Items))
		}
		if again, _ := Marshal(dec); !bytes.Equal(again, got) {
			t.Fatalf("%d items: decode → encode changed the bytes", len(items))
		}
		if dec.SizeBits() != msg.SizeBits() {
			t.Fatalf("%d items: SizeBits %d after the round trip, %d before", len(items), dec.SizeBits(), msg.SizeBits())
		}
		if len(items) > 0 {
			shapes[fmt.Sprintf("first supplied=%v", !items[0].MeNeither)]++
			shapes[fmt.Sprintf("last supplied=%v", !items[len(items)-1].MeNeither)]++
		}
		for k := 1; k+1 < len(items); k++ {
			if !items[k].MeNeither && items[k-1].MeNeither && items[k+1].MeNeither {
				shapes["supplied between me-neither"]++
				break
			}
		}
		if msg.MeNeither.RangeCount() > 1 {
			shapes["several me-neither runs"]++
		}
		if msg.MeNeither.RangeCount() > 0 && len(msg.Items) == 0 {
			shapes["all me-neither"]++
		}
	}
	for _, s := range []string{"first supplied=true", "first supplied=false", "last supplied=true",
		"last supplied=false", "supplied between me-neither", "several me-neither runs", "all me-neither"} {
		if shapes[s] < 20 {
			t.Errorf("shape %q drawn %d times: the answers do not exercise the merge", s, shapes[s])
		}
	}
}

// TestResp2HostileLists: a list the encoder could not have merged is
// refused — a peer named twice (either flag), a decreasing peer, a peer at
// or past intset.MaxIndex — and so is a count above the items present.
func TestResp2HostileLists(t *testing.T) {
	vals := bitarray.FromBools([]bool{true})
	one := intset.FromRange(3, 4)
	neither := func(q int) oldItem { return oldItem{Q: sim.PeerID(q), MeNeither: true} }
	supplied := func(q int) oldItem { return oldItem{Q: sim.PeerID(q), Indices: one, Values: vals} }
	for _, c := range []struct {
		name  string
		items []oldItem
	}{
		{"duplicate me-neither", []oldItem{neither(4), neither(4)}},
		{"duplicate supplied", []oldItem{supplied(4), supplied(4)}},
		{"me-neither then supplied, same peer", []oldItem{neither(2), neither(4), supplied(4)}},
		{"supplied then me-neither, same peer", []oldItem{supplied(4), neither(4)}},
		{"decreasing", []oldItem{neither(9), neither(5)}},
		{"decreasing after a run", []oldItem{neither(1), neither(2), neither(3), supplied(2)}},
		{"peer MaxIndex", []oldItem{neither(1), neither(intset.MaxIndex)}},
		{"peer past MaxIndex, supplied", []oldItem{supplied(intset.MaxIndex + 1)}},
	} {
		raw := oldMarshalResp2(2, c.items)
		if _, err := Unmarshal(raw, 4096); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", c.name, err)
		}
	}
	// A peer of 2^64−1 and a count one above the items present.
	huge := binary.AppendUvarint([]byte{tagCrashkResp2, 2, 1}, 1<<64-1)
	if _, err := Unmarshal(append(huge, 1), 4096); !errors.Is(err, ErrTruncated) {
		t.Errorf("peer 2^64−1: err = %v, want ErrTruncated", err)
	}
	raw := oldMarshalResp2(2, []oldItem{neither(1), supplied(3)})
	raw[2]++ // the count: 2 → 3
	if _, err := Unmarshal(raw, 4096); !errors.Is(err, ErrTruncated) {
		t.Errorf("count above the items present: err = %v, want ErrTruncated", err)
	}
	// The list the encoder does write is accepted: the refusals above are
	// the order and the bound, not the shape.
	if _, err := Unmarshal(oldMarshalResp2(2, []oldItem{neither(0), supplied(1), neither(2), neither(intset.MaxIndex - 1)}), 4096); err != nil {
		t.Errorf("an ordered list: %v", err)
	}
}

// TestDecoderRefusesWhatItCannotReproduce: hand-built frames that would
// re-encode to other bytes if they decoded, each refused, beside its
// canonical twin, which decodes and re-encodes to itself.
func TestDecoderRefusesWhatItCannotReproduce(t *testing.T) {
	zeroBits := []byte{8, 0, 0, 0, 0, 0, 0, 0, 0} // the 0-bit array's field
	word := func(n, w byte) []byte { return []byte{16, n, 0, 0, 0, 0, 0, 0, 0, w, 0, 0, 0, 0, 0, 0, 0} }
	oneBit, twoBits, threeBits := word(1, 1), word(2, 3), word(3, 5) // n-bit fields
	for _, c := range []struct {
		name      string
		bad, good []byte
	}{
		{"Resp2 me-neither byte 2", append([]byte{tagCrashkResp2, 2, 1, 5, 2, 0}, zeroBits...),
			append([]byte{tagCrashkResp2, 2, 1, 5, 0, 0}, zeroBits...)},
		{"Resp2 supplied item with an empty bitarray field",
			[]byte{tagCrashkResp2, 2, 1, 5, 0, 0, 0}, append([]byte{tagCrashkResp2, 2, 1, 5, 0, 0}, zeroBits...)},
		{"Resp2 byte 2 and an empty field", []byte{4, 2, 1, 5, 2, 0, 0}, []byte{4, 2, 1, 5, 1}},
		{"Resp2 item set {3} with a padded gap", append([]byte{tagCrashkResp2, 2, 1, 5, 0, 1, 0x84, 0x00}, oneBit...),
			append([]byte{tagCrashkResp2, 2, 1, 5, 0, 1, 4}, oneBit...)},
		{"Resp2 item set {3-4} with a padded length", append([]byte{tagCrashkResp2, 2, 1, 5, 0, 1, 0, 0x80, 0x00, 4}, twoBits...),
			append([]byte{tagCrashkResp2, 2, 1, 5, 0, 1, 0, 0, 4}, twoBits...)},
		{"crash1 Reply set {0-2} as a range and an escape with gap 0", append([]byte{tagCrash1Reply, 2, 3, 0, 2, 1, 0, 0, 0}, threeBits...),
			append([]byte{tagCrash1Reply, 2, 3, 0, 1, 0, 1, 1}, threeBits...)},
		{"crash1 Reply me-neither byte 2", append([]byte{tagCrash1Reply, 1, 7, 2, 0}, zeroBits...),
			append([]byte{tagCrash1Reply, 1, 7, 0, 0}, zeroBits...)},
		{"crash1 Reply me-neither byte 2, nothing after", []byte{tagCrash1Reply, 1, 7, 2}, []byte{tagCrash1Reply, 1, 7, 1}},
		{"Full with an empty field", []byte{tagCrashkFull, 0}, append([]byte{tagCrashkFull}, zeroBits...)},
		{"bitarray field one word long for 0 bits",
			[]byte{tagCrashkFull, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			[]byte{tagCrashkFull, 16, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"bitarray field short of its words",
			[]byte{tagCrashkFull, 16, 65, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			[]byte{tagCrashkFull, 16, 63, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"bitarray field not whole words",
			[]byte{tagCrashkFull, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, append([]byte{tagCrashkFull}, zeroBits...)},
		{"bitarray padding bit set",
			[]byte{tagCrashkFull, 16, 3, 0, 0, 0, 0, 0, 0, 0, 0x0d, 0, 0, 0, 0, 0, 0, 0},
			[]byte{tagCrashkFull, 16, 3, 0, 0, 0, 0, 0, 0, 0, 0x05, 0, 0, 0, 0, 0, 0, 0}},
		{"bitarray bit count 2^63−1",
			[]byte{tagCrashkFull, 16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0},
			[]byte{tagCrashkFull, 16, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"padded phase", []byte{tagCrash1Who, 0x81, 0x00, 2}, []byte{tagCrash1Who, 1, 2}},
		{"padded peer", []byte{tagCrash1Who, 1, 0x82, 0x00}, []byte{tagCrash1Who, 1, 2}},
		{"padded item count", []byte{tagCrashkReq2, 1, 0x80, 0x00}, []byte{tagCrashkReq2, 1, 0}},
		{"Req2 count 2^63", binary.AppendUvarint([]byte{tagCrashkReq2, 1}, 1<<63), []byte{tagCrashkReq2, 1, 0}},
		{"Report count 2^64−1", append(binary.AppendUvarint([]byte{tagCommitteeReport}, 1<<64-1), zeroBits...),
			append([]byte{tagCommitteeReport, 0}, zeroBits...)},
		{"padded Report delta", append([]byte{tagCommitteeReport, 1, 0x85, 0x00}, 16, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
			append([]byte{tagCommitteeReport, 1, 5}, 16, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)},
	} {
		if m, err := Unmarshal(c.bad, 4096); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s (% x): decoded to %+v, %v; want ErrTruncated", c.name, c.bad, m, err)
		}
		m, err := Unmarshal(c.good, 4096)
		if err != nil {
			t.Errorf("%s, canonical (% x): %v", c.name, c.good, err)
			continue
		}
		if back, _ := Marshal(m); !bytes.Equal(back, c.good) {
			t.Errorf("%s, canonical (% x): re-encoded to % x", c.name, c.good, back)
		}
	}
}

// TestNilBitsEncodeAsEmptyArray: a nil array is written as the 0-bit
// array — the field the decoder accepts, and what the receiver got for it
// before — so a message with nil values still round-trips.
func TestNilBitsEncodeAsEmptyArray(t *testing.T) {
	raw, err := Marshal(&crashk.Full{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Marshal(&crashk.Full{Values: bitarray.New(0)})
	if !bytes.Equal(raw, want) {
		t.Fatalf("nil values encode as % x, the 0-bit array as % x", raw, want)
	}
	m, err := Unmarshal(raw, 4096)
	if err != nil || m.(*crashk.Full).Values.Len() != 0 {
		t.Fatalf("nil values: decoded %+v, %v", m, err)
	}
}
