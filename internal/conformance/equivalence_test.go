package conformance

import (
	"fmt"
	"testing"

	"repro/download"
	"repro/internal/protocols"
)

// sameOutput fails the test unless the two runs output the same bits.
func sameOutput(t *testing.T, des, tcp *download.Report) {
	t.Helper()
	if len(des.Output) != len(tcp.Output) {
		t.Fatalf("output length diverged: des=%d tcp=%d", len(des.Output), len(tcp.Output))
	}
	for i := range des.Output {
		if des.Output[i] != tcp.Output[i] {
			t.Fatalf("output bit %d diverged: des=%v tcp=%v", i, des.Output[i], tcp.Output[i])
		}
	}
}

// TestDesTCPEquivalence is the cross-runtime equivalence property over
// a seeded grid of small fault-free specs: the deterministic and the
// socket runtime must produce bit-identical outputs, and — for the
// protocols whose query pattern is schedule-invariant — the same query
// complexity Q. crash1's and the crashk family's Q is asserted against
// the complexity envelope instead, because which blocks they re-query
// depends on message arrival order even without faults (see
// protocols.Row.QScheduleInvariant). This property is what makes the des-pinned
// fixture corpus a sound proxy for concurrent behavior.
func TestDesTCPEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("socket runtime grid in -short mode")
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
					opts.TCP = true
					tcp, err := download.Run(opts)
					if err != nil {
						t.Fatalf("tcp: %v", err)
					}
					if !des.Correct || !tcp.Correct {
						t.Fatalf("correctness: des=%v tcp=%v %v", des.Correct, tcp.Correct, tcp.Failures)
					}
					if row, _ := protocols.Lookup(string(info.Protocol)); row.QScheduleInvariant {
						if des.Q != tcp.Q {
							t.Errorf("Q diverged: des=%d tcp=%d", des.Q, tcp.Q)
						}
					} else {
						b := derivedMsgBits(sh.n, sh.l)
						if v := protocols.CheckEnvelope(string(info.Protocol), sh.n, tBound, sh.l, b, tcp.Q, tcp.Msgs); len(v) > 0 {
							t.Errorf("tcp Q outside envelope: %v", v)
						}
					}
					sameOutput(t, des, tcp)
				})
			}
		}
	}
}

// TestDesTCPEquivalenceUnderFaults extends the equivalence property into
// the fault planes: a flaky source and a crash-rejoin churn peer, which
// on sockets restarts from its durable checkpoint, must leave the outputs
// bit-identical across des and tcp (Q is schedule-dependent under
// recovery, so only correctness, the rejoin and the output bits are
// compared).
func TestDesTCPEquivalenceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("socket runtime in -short mode")
	}
	opts := download.Options{
		Protocol: download.Naive,
		N:        5, T: 2, L: 128,
		Seed:         4,
		SourceFaults: "fail=0.2,seed=1",
		Churn:        []download.ChurnPeer{{Peer: 0, CrashAfter: 2, Downtime: 0.2}},
	}
	des, err := download.Run(opts)
	if err != nil {
		t.Fatalf("des: %v", err)
	}
	opts.TCP = true
	tcp, err := download.Run(opts)
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}
	if !des.Correct || !tcp.Correct {
		t.Fatalf("correctness: des=%v tcp=%v %v", des.Correct, tcp.Correct, tcp.Failures)
	}
	if des.Rejoins != 1 || tcp.Rejoins != 1 {
		t.Fatalf("rejoins: des=%d tcp=%d, want 1 on both", des.Rejoins, tcp.Rejoins)
	}
	sameOutput(t, des, tcp)
}
