package download_test

import (
	"testing"

	"repro/download"
)

func TestTCPTransport(t *testing.T) {
	rep, err := download.Run(download.Options{
		Protocol: download.CrashK,
		N:        6, T: 2, L: 1024, Seed: 8,
		Behavior: download.CrashImmediate,
		TCP:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("incorrect over TCP: %v", rep.Failures)
	}
	if rep.Q >= 1024 {
		t.Errorf("Q = %d not sublinear", rep.Q)
	}
}

func TestTCPTransportRejections(t *testing.T) {
	cases := []download.Options{
		{Protocol: download.CrashK, N: 6, T: 2, L: 64, TCP: true, Behavior: download.Liar, Faulty: 3, AllowExcessFaults: true},
		{Protocol: "bogus", N: 6, T: 2, L: 64, TCP: true},
		{Protocol: download.CrashK, N: 6, T: 2, L: 64, TCP: true, Input: make([]bool, 3)},
	}
	for i, opts := range cases {
		if _, err := download.Run(opts); err == nil {
			t.Errorf("case %d: invalid TCP options accepted", i)
		}
	}
}

func TestTCPFixedInput(t *testing.T) {
	input := make([]bool, 200)
	for i := range input {
		input[i] = i%5 == 0
	}
	rep, err := download.Run(download.Options{
		Protocol: download.Naive,
		N:        3, T: 0, L: 200, Seed: 9,
		Input: input,
		TCP:   true,
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
