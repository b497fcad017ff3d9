package conformance

import (
	"fmt"
	"testing"
	"time"

	"repro/download"
)

// TestDesLiveEquivalence is the cross-runtime equivalence property over
// a seeded grid of small fault-free specs: the deterministic and the
// concurrent runtime must produce bit-identical outputs, and — for the
// protocols whose query pattern is schedule-invariant — the same query
// complexity Q. crash1's and the crashk family's Q is asserted against
// the complexity envelope instead, because which blocks they re-query
// depends on message arrival order even without faults (see
// qScheduleInvariant). This property is what makes the des-pinned fixture corpus a
// sound proxy for live behavior.
func TestDesLiveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime grid in -short mode")
	}
	shapes := []struct{ n, l int }{{5, 128}, {7, 224}}
	seeds := []int64{1, 2}
	for _, info := range download.Protocols() {
		for _, sh := range shapes {
			tBound := FaultBound(info, sh.n)
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/n%dL%d/s%d", info.Protocol, sh.n, sh.l, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					opts := download.Options{
						Protocol: info.Protocol,
						N:        sh.n, T: tBound, L: sh.l,
						Seed: seed,
					}
					des, err := download.Run(opts)
					if err != nil {
						t.Fatalf("des: %v", err)
					}
					lopts := opts
					lopts.Live = true
					lopts.LiveTimeScale = 200 * time.Microsecond
					liv, err := download.Run(lopts)
					if err != nil {
						t.Fatalf("live: %v", err)
					}
					if !des.Correct || !liv.Correct {
						t.Fatalf("correctness: des=%v live=%v %v", des.Correct, liv.Correct, liv.Failures)
					}
					if qScheduleInvariant[string(info.Protocol)] {
						if des.Q != liv.Q {
							t.Errorf("Q diverged: des=%d live=%d", des.Q, liv.Q)
						}
					} else {
						b := derivedMsgBits(sh.n, sh.l)
						if v := CheckEnvelope(info.Protocol, sh.n, tBound, sh.l, b, liv); len(v) > 0 {
							t.Errorf("live Q outside envelope: %v", v)
						}
					}
					if len(des.Output) != len(liv.Output) {
						t.Fatalf("output length diverged: des=%d live=%d", len(des.Output), len(liv.Output))
					}
					for i := range des.Output {
						if des.Output[i] != liv.Output[i] {
							t.Fatalf("output bit %d diverged: des=%v live=%v", i, des.Output[i], liv.Output[i])
						}
					}
				})
			}
		}
	}
}

// TestDesLiveEquivalenceUnderFaults extends the equivalence property
// into the fault planes the live runtime gained: a flaky source and a
// crash-rejoin churn peer must leave the outputs bit-identical across
// des and live (Q is schedule-dependent under recovery, so only
// correctness and the output bits are compared).
func TestDesLiveEquivalenceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("live runtime in -short mode")
	}
	opts := download.Options{
		Protocol: download.Naive,
		N:        5, T: 2, L: 128,
		Seed:         4,
		SourceFaults: "fail=0.2,seed=1",
		Churn:        []download.ChurnPeer{{Peer: 0, CrashAfter: 2, Downtime: 2}},
	}
	des, err := download.Run(opts)
	if err != nil {
		t.Fatalf("des: %v", err)
	}
	lopts := opts
	lopts.Live = true
	lopts.LiveTimeScale = 200 * time.Microsecond
	liv, err := download.Run(lopts)
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	if !des.Correct || !liv.Correct {
		t.Fatalf("correctness: des=%v live=%v %v", des.Correct, liv.Correct, liv.Failures)
	}
	if des.Rejoins != 1 || liv.Rejoins != 1 {
		t.Fatalf("rejoins: des=%d live=%d, want 1 on both", des.Rejoins, liv.Rejoins)
	}
	if len(des.Output) != len(liv.Output) {
		t.Fatalf("output length diverged: des=%d live=%d", len(des.Output), len(liv.Output))
	}
	for i := range des.Output {
		if des.Output[i] != liv.Output[i] {
			t.Fatalf("output bit %d diverged: des=%v live=%v", i, des.Output[i], liv.Output[i])
		}
	}
}
