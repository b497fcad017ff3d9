package sim

import (
	"fmt"
	"strings"

	"repro/internal/bitarray"
)

// PeerStats records one peer's accounting for an execution.
type PeerStats struct {
	ID         PeerID
	Honest     bool
	Crashed    bool
	Terminated bool
	// TermTime is the virtual time of termination (valid when Terminated).
	TermTime float64
	// QueryBits counts source bits requested (the paper's per-peer query
	// complexity contribution).
	QueryBits int
	// QueryCalls counts Query invocations (batch requests).
	QueryCalls int
	// MsgsSent counts network messages after b-chunking: a message of s
	// bits counts ceil(s/b).
	MsgsSent int
	// MsgBitsSent is the total payload bits sent.
	MsgBitsSent int
	// Output is the array the peer output, or nil.
	Output *bitarray.Array
	// OutputCorrect reports Output == X (meaningful for honest peers).
	OutputCorrect bool

	// Robustness counters (netrt runtime; zero elsewhere). They count
	// recovery work, not protocol cost: fault-plan events and the retries
	// that absorbed them.

	// QueryRetries counts every re-send of a source query on the socket
	// runtime, whatever failed the attempt before it: a refusal or a
	// silence.
	QueryRetries int
	// Reconnects counts successful redials after a severed connection.
	Reconnects int
	// DupFramesDropped counts duplicate frames the peer (or the hub, on
	// this peer's link) received and discarded.
	DupFramesDropped int
	// PlanDropped/PlanDuped count fault-plan drop/duplicate events on
	// deliveries toward this peer.
	PlanDropped int
	PlanDuped   int

	// Source-resilience counters (runtimes executing a source.FaultPlan;
	// zero elsewhere). Like the robustness counters above they measure
	// recovery work: Q still charges each logical query exactly once.

	// SourceRetries counts query attempts re-issued after a source
	// failure (backoff retries).
	SourceRetries int
	// SourceFailures counts failed query attempts (all kinds).
	SourceFailures int
	// BreakerOpens counts this peer's circuit-breaker open transitions.
	BreakerOpens int
	// DeferredQueries counts queries parked while the breaker was open.
	DeferredQueries int
	// DegradedTime is time this peer spent with its breaker not closed.
	DegradedTime float64
	// WarmHitBits counts query bits served from already-verified bits
	// instead of from the source: a churn peer's persisted bits after its
	// rejoin, or the bits earlier hardening rungs verified (Spec.Warm).
	WarmHitBits int
	// Rejoined reports this churn peer crashed and rejoined.
	Rejoined bool
	// CheckpointSaves/CheckpointRestores count durable checkpoints this
	// churn peer wrote at crash time and warm states it reloaded at
	// rejoin (netrt runtime; the simulation runtimes keep warm state in
	// memory, so they stay zero there).
	CheckpointSaves    int
	CheckpointRestores int

	// Mirror-tier counters (runtimes executing a source.MirrorPlan;
	// zero elsewhere). Q semantics are unchanged: only verified bits
	// are charged, whether a mirror or the fallback served them.

	// MirrorHits counts queries fully answered by a verified mirror
	// reply.
	MirrorHits int
	// ProofFailures counts mirror replies rejected by Merkle
	// verification (wrong bits, forged/mangled proofs, stale roots).
	ProofFailures int
	// FallbackQueries counts queries re-issued to the authoritative
	// source after a mirror refusal or verification failure.
	FallbackQueries int
}

// Result aggregates an execution's outcome. Aggregates follow the paper's
// definitions and cover nonfaulty peers only.
type Result struct {
	PerPeer []PeerStats
	// Q is the query complexity: max QueryBits over honest peers.
	Q int
	// Msgs is the message complexity: total MsgsSent over honest peers.
	Msgs int
	// MsgBits is total payload bits sent by honest peers.
	MsgBits int
	// Time is when the last honest peer terminated: in virtual time
	// units on des (1 = the maximum network latency), in wall-clock
	// seconds since the run started on TCP.
	Time float64
	// Correct reports that every honest peer terminated with output X.
	Correct bool
	// Deadlocked reports the runtime found all live honest peers blocked
	// with no deliverable events.
	Deadlocked bool
	// EventCapHit reports the execution was cut off by the event cap.
	EventCapHit bool
	// DeadlineHit reports the execution was cut off by Spec.Deadline
	// with honest peers still running.
	DeadlineHit bool
	// Failures lists human-readable correctness violations.
	Failures []string
	// Events is the number of delivered events (des runtime).
	Events int
	// QueryRetries/Reconnects aggregate the per-peer robustness counters
	// over honest peers (netrt runtime; zero elsewhere).
	QueryRetries int
	Reconnects   int
	// Source-resilience aggregates over honest peers (runtimes executing
	// a source.FaultPlan; zero elsewhere). DegradedTime is the max
	// degraded interval of any honest peer, the others are sums.
	SourceRetries   int
	SourceFailures  int
	BreakerOpens    int
	DeferredQueries int
	DegradedTime    float64
	// Rejoins counts churn peers (faulty by definition) that crashed and
	// rejoined, over all peers.
	Rejoins int
	// WarmHitBits totals PeerStats.WarmHitBits — churn rejoins' and
	// hardening rungs' warm hits — over all peers, faulty ones included.
	WarmHitBits int
	// CheckpointSaves/CheckpointRestores aggregate the durable-checkpoint
	// counters over all peers (netrt runtime; zero elsewhere).
	CheckpointSaves    int
	CheckpointRestores int
	// Mirror-tier aggregates over honest peers (runtimes executing a
	// source.MirrorPlan; zero elsewhere).
	MirrorHits      int
	ProofFailures   int
	FallbackQueries int
}

// Finalize computes aggregates and correctness from PerPeer against the
// input array. Runtimes call it once at the end of Run.
func (r *Result) Finalize(input *bitarray.Array) {
	r.Correct = true
	for i := range r.PerPeer {
		s := &r.PerPeer[i]
		if s.Rejoined {
			r.Rejoins++
		}
		r.WarmHitBits += s.WarmHitBits
		r.CheckpointSaves += s.CheckpointSaves
		r.CheckpointRestores += s.CheckpointRestores
		if !s.Honest {
			continue
		}
		s.OutputCorrect = s.Output != nil && s.Output.Equal(input)
		if !s.Terminated {
			r.Correct = false
			r.Failures = append(r.Failures, fmt.Sprintf("peer %d: did not terminate", s.ID))
			continue
		}
		if !s.OutputCorrect {
			r.Correct = false
			if s.Output == nil {
				r.Failures = append(r.Failures, fmt.Sprintf("peer %d: terminated without output", s.ID))
			} else if d, err := s.Output.FirstDiff(input); err != nil {
				r.Failures = append(r.Failures, fmt.Sprintf("peer %d: output length %d != %d", s.ID, s.Output.Len(), input.Len()))
			} else {
				r.Failures = append(r.Failures, fmt.Sprintf("peer %d: output wrong at bit %d", s.ID, d))
			}
		}
		if s.QueryBits > r.Q {
			r.Q = s.QueryBits
		}
		r.Msgs += s.MsgsSent
		r.MsgBits += s.MsgBitsSent
		r.QueryRetries += s.QueryRetries
		r.Reconnects += s.Reconnects
		r.SourceRetries += s.SourceRetries
		r.SourceFailures += s.SourceFailures
		r.BreakerOpens += s.BreakerOpens
		r.DeferredQueries += s.DeferredQueries
		r.MirrorHits += s.MirrorHits
		r.ProofFailures += s.ProofFailures
		r.FallbackQueries += s.FallbackQueries
		if s.DegradedTime > r.DegradedTime {
			r.DegradedTime = s.DegradedTime
		}
		if s.TermTime > r.Time {
			r.Time = s.TermTime
		}
	}
	if r.Deadlocked {
		r.Correct = false
		r.Failures = append(r.Failures, "execution deadlocked")
	}
	if r.EventCapHit {
		r.Correct = false
		r.Failures = append(r.Failures, "event cap reached before termination")
	}
	if r.DeadlineHit {
		r.Correct = false
		r.Failures = append(r.Failures, "deadline reached before termination")
	}
}

// String renders a one-line summary.
func (r *Result) String() string {
	status := "OK"
	if !r.Correct {
		status = "FAIL[" + strings.Join(r.Failures, "; ") + "]"
	}
	return fmt.Sprintf("Q=%d msgs=%d msgbits=%d time=%.2f events=%d %s",
		r.Q, r.Msgs, r.MsgBits, r.Time, r.Events, status)
}

// HonestCount returns the number of honest peers in the result.
func (r *Result) HonestCount() int {
	c := 0
	for i := range r.PerPeer {
		if r.PerPeer[i].Honest {
			c++
		}
	}
	return c
}

// AvgQ returns the mean QueryBits over honest peers — useful alongside Q
// for load-balance analysis.
func (r *Result) AvgQ() float64 {
	sum, c := 0, 0
	for i := range r.PerPeer {
		if r.PerPeer[i].Honest {
			sum += r.PerPeer[i].QueryBits
			c++
		}
	}
	if c == 0 {
		return 0
	}
	return float64(sum) / float64(c)
}
