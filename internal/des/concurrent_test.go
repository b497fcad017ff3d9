package des_test

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/source"
)

// familyCells returns one spec constructor per protocol family, covering
// failure-free, crash and Byzantine executions.
func familyCells() map[string]func() *sim.Spec {
	const seed = 42
	mk := func(n, tf, L int, factory func(sim.PeerID) sim.Peer, faults func() sim.Faults) func() *sim.Spec {
		return func() *sim.Spec {
			return &sim.Spec{
				Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 128, Seed: seed},
				NewPeer: factory,
				Delays:  adversary.NewRandomUnit(seed + 5),
				Faults:  faults(),
			}
		}
	}
	none := func() sim.Faults { return sim.Faults{} }
	crash := func(n, tf int) func() sim.Faults {
		return func() sim.Faults {
			f := adversary.SpreadFaulty(n, tf)
			return sim.Faults{Fates: adversary.NewCrashRandom(seed, f, 10*n)}
		}
	}
	byz := func(n, tf int, b func(sim.PeerID, *sim.Knowledge) sim.Peer) func() sim.Faults {
		return func() sim.Faults {
			return sim.Faults{Fates: sim.Byzantines(adversary.SpreadFaulty(n, tf), b)}
		}
	}
	return map[string]func() *sim.Spec{
		"naive":     mk(6, 0, 256, naive.New, none),
		"crash1":    mk(8, 1, 1024, crash1.New, crash(8, 1)),
		"crashk":    mk(12, 6, 2048, crashk.NewFast, crash(12, 6)),
		"committee": mk(9, 4, 540, committee.New, byz(9, 4, committee.NewLiar)),
		"twocycle":  mk(32, 8, 1024, twocycle.New, byz(32, 8, segproto.NewColludingLiar)),
	}
}

// sourceFaultedCells returns one constructor per seed for a batched-naive
// cell against a faulty source — retries, breaker trips, outage parking —
// with one crash-rejoin churn peer.
func sourceFaultedCells(t *testing.T, seeds ...int64) map[string]func() *sim.Spec {
	plan, err := source.ParsePlan("fail=0.25,timeout=0.1,latency=0.4,outage=1..2.5,seed=13")
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]func() *sim.Spec, len(seeds))
	for _, seed := range seeds {
		seed := seed
		cells["srcfault/seed="+strconv.FormatInt(seed, 10)] = func() *sim.Spec {
			return &sim.Spec{
				Config:       sim.Config{N: 8, T: 2, L: 512, MsgBits: 64, Seed: seed},
				NewPeer:      naive.NewBatched(64),
				Delays:       adversary.NewRandomUnit(seed + 3),
				Faults:       sim.Faults{Fates: []sim.Fate{{Peer: 0, CrashAfter: 6, Downtime: 3}}},
				SourceFaults: plan,
			}
		}
	}
	return cells
}

// runCell runs a fresh spec of one cell, recording into reg.
func runCell(t *testing.T, name string, mk func() *sim.Spec, reg *obs.Registry) *sim.Result {
	spec := mk()
	spec.Metrics, spec.Label = reg, name
	res, err := des.New().Run(spec)
	if err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return res
}

// runSerial runs every cell once, in turn, and fails on an incorrect run.
func runSerial(t *testing.T, cells map[string]func() *sim.Spec, reg *obs.Registry) map[string]*sim.Result {
	out := make(map[string]*sim.Result, len(cells))
	for name, mk := range cells {
		res := runCell(t, name, mk, reg)
		if res == nil || !res.Correct {
			t.Fatalf("%s: reference run incorrect: %v", name, res)
		}
		out[name] = res
	}
	return out
}

// runConcurrently runs every cell rounds times from four goroutines, all
// recording into reg, and checks each result against want field for field.
func runConcurrently(t *testing.T, cells map[string]func() *sim.Spec, want map[string]*sim.Result, rounds int, reg *obs.Registry) {
	jobs := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				if res := runCell(t, name, cells[name], reg); !reflect.DeepEqual(res, want[name]) {
					t.Errorf("%s: concurrent result differs from serial:\n serial     %v\n concurrent %v", name, want[name], res)
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for name := range cells {
			jobs <- name
		}
	}
	close(jobs)
	wg.Wait()
}

// TestConcurrentRunsMatchSerial: des engines running at once in one
// process share nothing, so every field of every sim.Result — per-peer
// stats, aggregates and robustness counters — equals its serial run.
// Under `make race` this is also the engine's data-race check.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cells := familyCells()
	serial := runSerial(t, cells, nil)
	for name, res := range runSerial(t, cells, nil) {
		if !reflect.DeepEqual(res, serial[name]) {
			t.Errorf("%s: two serial runs differ:\n run1 %v\n run2 %v", name, serial[name], res)
		}
	}
	runConcurrently(t, cells, serial, 2, nil)
}

// TestSourceFaultedConcurrentMatchesSerial is the source-tier form of the
// same property: every fault decision is a pure function of (plan seed,
// peer, ordinal, attempt) and the churn schedule lives in virtual time, so
// source-faulted runs are identical whether they run alone or at once.
func TestSourceFaultedConcurrentMatchesSerial(t *testing.T) {
	cells := sourceFaultedCells(t, 1, 2, 3, 4, 5, 6)
	serial := runSerial(t, cells, nil)
	sawFailures := false
	for _, res := range serial {
		sawFailures = sawFailures || res.SourceFailures > 0
	}
	if !sawFailures {
		t.Fatal("fixture degenerate: no cell recorded a source failure")
	}
	runConcurrently(t, cells, serial, 1, nil)
}

// TestSharedRegistryUnderConcurrentRuns: a shared obs.Registry loses no
// increment when des runs record into it at once — some into the same
// series (run-global counters), some creating fresh ones (per-label
// series). Four goroutines run every reference cell, one source-faulted
// cell included, twice into one registry; its sums must be twice the
// serial totals. Under `make race` this is also the registry's data-race
// check.
func TestSharedRegistryUnderConcurrentRuns(t *testing.T) {
	cells := familyCells()
	for name, mk := range sourceFaultedCells(t, 1) {
		cells[name] = mk
	}
	const rounds = 2
	serialReg, shared := obs.New(), obs.New()
	serial := runSerial(t, cells, serialReg)
	runConcurrently(t, cells, serial, rounds, shared)

	want, got := serialReg.Snapshot(), shared.Snapshot()
	for _, metric := range []string{"dr_sim_events_total", "dr_sim_query_bits_total", "dr_sim_msgs_sent_total"} {
		if w, g := sumSeries(want, metric), sumSeries(got, metric); g != rounds*w || w == 0 {
			t.Errorf("%s: shared registry sums to %v, want %d × the serial %v", metric, g, rounds, w)
		}
	}
}

// sumSeries adds every series of one metric family.
func sumSeries(snap *obs.Snapshot, name string) float64 {
	total := 0.0
	for _, m := range snap.Metrics {
		if m.Name == name {
			for _, s := range m.Series {
				total += s.Value
			}
		}
	}
	return total
}
