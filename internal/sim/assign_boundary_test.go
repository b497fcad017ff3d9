package sim

import "testing"

// Table-driven boundary tests for the assignment helpers at the edges the
// generic property tests sample only incidentally: L not divisible by n,
// L < n (empty blocks) and n = 1.

func TestBlockRangeBoundaries(t *testing.T) {
	cases := []struct {
		name string
		L, n int
		// want[i] = {start, end} for peer i.
		want [][2]int
	}{
		{"indivisible", 10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{"indivisible-7-4", 7, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 7}}},
		{"L-less-than-n", 2, 5, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 2}, {2, 2}}},
		{"L-one-n-many", 1, 4, [][2]int{{0, 1}, {1, 1}, {1, 1}, {1, 1}}},
		{"n-equals-1", 6, 1, [][2]int{{0, 6}}},
		{"exact-division", 8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{"L-equals-n", 4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for p, want := range tc.want {
				s, e := BlockRange(tc.L, tc.n, PeerID(p))
				if s != want[0] || e != want[1] {
					t.Errorf("BlockRange(%d,%d,%d) = [%d,%d), want [%d,%d)",
						tc.L, tc.n, p, s, e, want[0], want[1])
				}
			}
		})
	}
}

// TestBlockPartitionExactCover: for a grid of (L, n) including all the
// boundary shapes, every index 0..L-1 is covered by exactly one peer's
// block, blocks are contiguous and ordered, sizes differ by at most one,
// and BlockOwner agrees with BlockRange everywhere.
func TestBlockPartitionExactCover(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16} {
		for _, L := range []int{1, 2, 3, n - 1, n, n + 1, 2*n + 1, 10 * n} {
			if L < 1 {
				continue
			}
			covered := make([]int, L)
			minSize, maxSize := L+1, -1
			prevEnd := 0
			for p := 0; p < n; p++ {
				s, e := BlockRange(L, n, PeerID(p))
				if s != prevEnd {
					t.Fatalf("L=%d n=%d: peer %d block [%d,%d) not contiguous with previous end %d",
						L, n, p, s, e, prevEnd)
				}
				if e < s {
					t.Fatalf("L=%d n=%d: peer %d inverted block [%d,%d)", L, n, p, s, e)
				}
				prevEnd = e
				if sz := e - s; sz < minSize {
					minSize = sz
				}
				if sz := e - s; sz > maxSize {
					maxSize = sz
				}
				for i := s; i < e; i++ {
					covered[i]++
					if own := BlockOwner(L, n, i); own != PeerID(p) {
						t.Fatalf("L=%d n=%d: BlockOwner(%d) = %d, but %d's range is [%d,%d)",
							L, n, i, own, p, s, e)
					}
				}
			}
			if prevEnd != L {
				t.Fatalf("L=%d n=%d: blocks end at %d, want %d", L, n, prevEnd, L)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("L=%d n=%d: index %d covered %d times", L, n, i, c)
				}
			}
			if maxSize-minSize > 1 {
				t.Fatalf("L=%d n=%d: block sizes range [%d,%d], want spread <= 1",
					L, n, minSize, maxSize)
			}
		}
	}
}
