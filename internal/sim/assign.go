package sim

// Balanced assignment helpers shared by the Download protocols. All are
// pure functions of their arguments, so every peer computes identical
// assignments without communication — the property Claim 1 of the paper
// relies on.

// BlockRange returns the half-open index range [start, end) of the block
// owned by peer p under the balanced block partition of L items among n
// peers: the first L mod n peers own ceil(L/n) items, the rest floor(L/n).
func BlockRange(L, n int, p PeerID) (start, end int) {
	q, r := L/n, L%n
	i := int(p)
	if i < r {
		start = i * (q + 1)
		return start, start + q + 1
	}
	start = r*(q+1) + (i-r)*q
	return start, start + q
}

// BlockOwner returns the peer owning item i under the same partition.
func BlockOwner(L, n, i int) PeerID {
	q, r := L/n, L%n
	boundary := r * (q + 1)
	if i < boundary {
		return PeerID(i / (q + 1))
	}
	if q == 0 {
		// All items live in the first r blocks; i >= boundary cannot
		// happen for valid i < L.
		return PeerID(r - 1)
	}
	return PeerID(r + (i-boundary)/q)
}
