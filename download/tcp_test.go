package download_test

import (
	"errors"
	"testing"

	"repro/download"
	"repro/internal/netrt"
	"repro/internal/obs"
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
		{Protocol: "bogus", N: 6, T: 2, L: 64, TCP: true},
		{Protocol: download.CrashK, N: 6, T: 2, L: 64, TCP: true, Input: make([]bool, 3)},
	}
	for i, opts := range cases {
		if _, err := download.Run(opts); err == nil {
			t.Errorf("case %d: invalid TCP options accepted", i)
		}
	}
	// Faults beyond T are no misconfiguration: the run is served, as on
	// des. Three liars stall crashk, so it runs to its deadline.
	excess := download.Options{Protocol: download.CrashK, N: 6, T: 2, L: 64, TCP: true,
		Behavior: download.Liar, Faulty: 3, AllowExcessFaults: true, Deadline: 0.5}
	var terr *netrt.TimeoutError
	if _, err := download.Run(excess); err != nil && !errors.As(err, &terr) {
		t.Errorf("faults beyond T refused on TCP: %v", err)
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

// TestBenchmarkSeriesNames pins the metric families the benchmark's
// per-layer rows read, by name: after one metered download on each
// runtime every one is registered. A renamed family would read as zero
// there, not fail.
func TestBenchmarkSeriesNames(t *testing.T) {
	reg := obs.New()
	for _, tcp := range []bool{false, true} {
		rep, err := download.Run(download.Options{
			Protocol: download.CrashK, N: 4, T: 1, L: 256, Seed: 3,
			TCP: tcp, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("tcp=%v: incorrect run: %v", tcp, rep.Failures)
		}
	}
	registered := map[string]bool{}
	for _, m := range reg.Snapshot().Metrics {
		registered[m.Name] = true
	}
	for _, name := range []string{
		"dr_sim_query_calls_total", "dr_sim_dispatch_seconds", "dr_sim_queue_depth",
		"dr_net_query_calls_total", "dr_net_query_retries_total", "dr_net_reconnects_total",
		"dr_net_dup_frames_dropped_total", "dr_net_plan_dropped_total",
		"dr_net_frames_total", "dr_net_frame_bytes_total",
		"dr_net_shard_frames_total", "dr_net_shard_batch_frames",
	} {
		if !registered[name] {
			t.Errorf("%s is not registered", name)
		}
	}
}
