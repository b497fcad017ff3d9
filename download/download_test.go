package download_test

import (
	"fmt"
	"testing"

	"repro/download"
)

func TestEveryProtocolFailureFree(t *testing.T) {
	for _, info := range download.Protocols() {
		info := info
		t.Run(string(info.Protocol), func(t *testing.T) {
			rep, err := download.Run(download.Options{
				Protocol: info.Protocol,
				N:        8, T: 2, L: 512, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("incorrect: %v", rep.Failures)
			}
			if len(rep.Output) != 512 {
				t.Fatalf("output length %d", len(rep.Output))
			}
		})
	}
}

func TestFixedInputRoundTrip(t *testing.T) {
	input := make([]bool, 100)
	for i := range input {
		input[i] = i%3 == 0
	}
	rep, err := download.Run(download.Options{
		Protocol: download.CrashK,
		N:        5, T: 1, L: 100, Seed: 2,
		Input:    input,
		Behavior: download.CrashImmediate, Faulty: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
	for i := range input {
		if rep.Output[i] != input[i] {
			t.Fatalf("output differs at %d", i)
		}
	}
}

func TestBehaviorMatrix(t *testing.T) {
	cases := []struct {
		proto    download.Protocol
		behavior download.FaultBehavior
		n, tf    int
	}{
		{download.CrashK, download.CrashImmediate, 8, 3},
		{download.CrashK, download.CrashRandom, 8, 5},
		{download.Crash1, download.CrashRandom, 6, 1},
		{download.Committee, download.Silent, 9, 4},
		{download.Committee, download.Liar, 9, 4},
		{download.Committee, download.Equivocate, 9, 4},
		{download.Committee, download.Spam, 9, 4},
		{download.Naive, download.Liar, 6, 2},
		{download.TwoCycle, download.Liar, 10, 3},
		{download.MultiCycle, download.Silent, 10, 3},
	}
	for _, c := range cases {
		label := fmt.Sprintf("%s/%s", c.proto, c.behavior)
		t.Run(label, func(t *testing.T) {
			rep, err := download.Run(download.Options{
				Protocol: c.proto,
				N:        c.n, T: c.tf, L: 256, Seed: 3,
				Behavior: c.behavior,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("incorrect: %v", rep.Failures)
			}
		})
	}
}

// TestCrashRandomOverTCP: a random crash point reaches the socket
// runtime as a churn crash that never rejoins.
func TestCrashRandomOverTCP(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.CrashKFast,
		N:        6, T: 2, L: 256, Seed: 4,
		Behavior: download.CrashRandom,
		TCP:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect: %v", rep.Failures)
	}
}

func TestOptionErrors(t *testing.T) {
	cases := []download.Options{
		{Protocol: "bogus", N: 4, T: 1, L: 64},
		{Protocol: download.Naive, N: 4, T: 1, L: 64, Input: make([]bool, 3)},
		{Protocol: download.Naive, N: 4, T: 1, L: 64, Faulty: 1},
		{Protocol: download.Naive, N: 4, T: 1, L: 64, Faulty: 2, Behavior: download.Silent},
		{Protocol: download.Naive, N: 4, T: 1, L: 64, Behavior: "weird"},
		{Protocol: download.Naive, N: 0, T: 0, L: 64},
	}
	for i, opts := range cases {
		if _, err := download.Run(opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestProtocolsCatalog(t *testing.T) {
	infos := download.Protocols()
	if len(infos) != 7 {
		t.Fatalf("catalog has %d entries", len(infos))
	}
	for _, info := range infos {
		if _, err := info.Protocol.Factory(); err != nil {
			t.Errorf("%s: %v", info.Protocol, err)
		}
		if info.Theorem == "" || info.Query == "" {
			t.Errorf("%s: incomplete catalog entry", info.Protocol)
		}
	}
	if len(download.Behaviors()) == 0 {
		t.Error("no behaviors listed")
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() *download.Report {
		rep, err := download.Run(download.Options{
			Protocol: download.TwoCycle,
			N:        12, T: 3, L: 1024, Seed: 9,
			Behavior: download.Silent,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Q != b.Q || a.Msgs != b.Msgs || a.Time != b.Time {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}
