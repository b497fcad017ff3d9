package sim

import (
	"strings"
	"testing"

	"repro/internal/bitarray"
)

func mkInput(n int) *bitarray.Array {
	a := bitarray.New(n)
	for i := 0; i < n; i += 3 {
		a.Set(i, true)
	}
	return a
}

func TestFinalizeAllCorrect(t *testing.T) {
	input := mkInput(16)
	r := &Result{PerPeer: []PeerStats{
		{ID: 0, Honest: true, Terminated: true, TermTime: 2, QueryBits: 5, MsgsSent: 3, MsgBitsSent: 99, Output: input.Clone()},
		{ID: 1, Honest: true, Terminated: true, TermTime: 4, QueryBits: 9, MsgsSent: 1, MsgBitsSent: 10, Output: input.Clone()},
		{ID: 2, Honest: false, Crashed: true},
	}}
	r.Finalize(input)
	if !r.Correct {
		t.Fatalf("should be correct: %v", r.Failures)
	}
	if r.Q != 9 || r.Msgs != 4 || r.MsgBits != 109 || r.Time != 4 {
		t.Errorf("aggregates wrong: %+v", r)
	}
	if r.HonestCount() != 2 {
		t.Errorf("honest count = %d", r.HonestCount())
	}
	if avg := r.AvgQ(); avg != 7 {
		t.Errorf("AvgQ = %v", avg)
	}
	if !strings.Contains(r.String(), "OK") {
		t.Errorf("String = %q", r.String())
	}
}

func TestFinalizeFailures(t *testing.T) {
	input := mkInput(8)
	wrong := input.Clone()
	wrong.Set(5, !wrong.Get(5))
	short := bitarray.New(4)

	cases := []struct {
		name string
		ps   PeerStats
		want string
	}{
		{"not terminated", PeerStats{ID: 0, Honest: true}, "did not terminate"},
		{"no output", PeerStats{ID: 0, Honest: true, Terminated: true}, "without output"},
		{"wrong bit", PeerStats{ID: 0, Honest: true, Terminated: true, Output: wrong}, "wrong at bit 5"},
		{"wrong length", PeerStats{ID: 0, Honest: true, Terminated: true, Output: short}, "length 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Result{PerPeer: []PeerStats{tc.ps}}
			r.Finalize(input)
			if r.Correct {
				t.Fatal("should not be correct")
			}
			if len(r.Failures) == 0 || !strings.Contains(r.Failures[0], tc.want) {
				t.Errorf("failures = %v, want %q", r.Failures, tc.want)
			}
			if !strings.Contains(r.String(), "FAIL") {
				t.Errorf("String = %q", r.String())
			}
		})
	}
}

func TestFinalizeDeadlockAndCap(t *testing.T) {
	input := mkInput(8)
	r := &Result{Deadlocked: true, PerPeer: []PeerStats{
		{ID: 0, Honest: true, Terminated: true, Output: input.Clone()},
	}}
	r.Finalize(input)
	if r.Correct {
		t.Fatal("deadlocked result reported correct")
	}
	r2 := &Result{EventCapHit: true, PerPeer: []PeerStats{
		{ID: 0, Honest: true, Terminated: true, Output: input.Clone()},
	}}
	r2.Finalize(input)
	if r2.Correct {
		t.Fatal("capped result reported correct")
	}
}

func TestAvgQEmpty(t *testing.T) {
	r := &Result{PerPeer: []PeerStats{{ID: 0, Honest: false}}}
	if r.AvgQ() != 0 {
		t.Errorf("AvgQ over no honest peers = %v", r.AvgQ())
	}
}

func TestSpecValidateObserverAndExcess(t *testing.T) {
	// AllowExcess lifts the count bound but never the no-honest bound.
	spec := &Spec{
		Config:  Config{N: 3, T: 1, L: 8, MsgBits: 64},
		NewPeer: func(PeerID) Peer { return nil },
		Delays:  fakeDelays{},
		Faults: Faults{
			Fates:       Byzantines([]PeerID{0, 1}, func(PeerID, *Knowledge) Peer { return nil }),
			AllowExcess: true,
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("AllowExcess rejected: %v", err)
	}
	spec.Faults.Fates = Crashes([]PeerID{0, 1, 2}, 0)
	if err := spec.Validate(); err == nil {
		t.Fatal("all-faulty accepted")
	}
}

// TestSpecValidateWarm: Warm holds one tracker per peer, nil for a peer
// with none, each over the input's L bits.
func TestSpecValidateWarm(t *testing.T) {
	spec := &Spec{
		Config:  Config{N: 3, T: 0, L: 8, MsgBits: 64},
		NewPeer: func(PeerID) Peer { return nil },
		Delays:  fakeDelays{},
	}
	for _, tc := range []struct {
		name string
		warm []*bitarray.Tracker
		ok   bool
	}{
		{"none", nil, true},
		{"one per peer", []*bitarray.Tracker{bitarray.NewTracker(8), nil, bitarray.NewTracker(8)}, true},
		{"too few", []*bitarray.Tracker{bitarray.NewTracker(8), bitarray.NewTracker(8)}, false},
		{"too many", []*bitarray.Tracker{nil, nil, nil, nil}, false},
		{"wrong length", []*bitarray.Tracker{bitarray.NewTracker(8), bitarray.NewTracker(16), nil}, false},
	} {
		spec.Warm = tc.warm
		if err := spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

type fakeDelays struct{}

func (fakeDelays) MessageDelay(_, _ PeerID, _ float64, _ int) float64 { return 1 }
func (fakeDelays) QueryDelay(PeerID, float64) float64                 { return 1 }
func (fakeDelays) StartDelay(PeerID) float64                          { return 0 }
