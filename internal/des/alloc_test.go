package des_test

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
)

// Allocation budgets for the scheduling hot path. The engine pools event
// structs and skips observer bookkeeping when no Observer is attached, so
// a run's allocation count is dominated by protocol work, not the
// scheduler; these tests pin that property with an absolute per-run
// budget (measured value plus ~50% slack). A regression that reintroduces
// per-delivery allocation (event churn, eager type-name formatting)
// multiplies the count well past the slack.

func allocBudget(t *testing.T, name string, budget float64, spec func() *sim.Spec) {
	t.Helper()
	allocs := testing.AllocsPerRun(5, runCorrect(t, spec))
	if allocs > budget {
		t.Errorf("%s: %.0f allocs per run, budget %.0f", name, allocs, budget)
	}
}

func runCorrect(t *testing.T, spec func() *sim.Spec) func() {
	return func() {
		res, err := des.New().Run(spec())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("incorrect: %v", res.Failures)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up one.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestRunAllocBudgetNaive(t *testing.T) {
	// 6 peers, no faults, 10 events: the floor cost of engine + peers.
	// Measured 159.
	allocBudget(t, "naive", 220, func() *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: 6, T: 0, L: 512, MsgBits: 128, Seed: 9},
			NewPeer: naive.New,
			Delays:  adversary.NewRandomUnit(9),
		}
	})
}

func TestRunAllocBudgetCrash1(t *testing.T) {
	// A message-heavy protocol run (615 messages): deliveries must reuse
	// pooled events rather than allocating per send. Measured 321 — well
	// under one alloc per message.
	allocBudget(t, "crash1", 560, func() *sim.Spec {
		f := adversary.SpreadFaulty(8, 1)
		return &sim.Spec{
			Config:  sim.Config{N: 8, T: 1, L: 1024, MsgBits: 128, Seed: 9},
			NewPeer: crash1.New,
			Delays:  adversary.NewRandomUnit(9),
			Faults:  sim.Faults{Fates: adversary.NewCrashRandom(9, f, 80)},
		}
	})
}

// committeeSpec is a small all-to-all cell: committee at N=32 with eight
// lying Byzantine peers, 32·31 reports in flight at the peak.
func committeeSpec() *sim.Spec {
	return &sim.Spec{
		Config:  sim.Config{N: 32, T: 8, L: 512, MsgBits: 128, Seed: 9},
		NewPeer: committee.New,
		Delays:  adversary.NewRandomUnit(9),
		Faults:  sim.Faults{Fates: sim.Byzantines(adversary.SpreadFaulty(32, 8), committee.NewLiar)},
	}
}

func TestRunAllocBudgetCommittee(t *testing.T) {
	// Events live in slabs of 256 and peers build no random stream they do
	// not draw from. Measured 1,007 allocs and 374 kB a run; an engine that
	// allocated each event and built a stream per peer took 2,016 and 579
	// kB, and the 32 streams alone put a run over the byte budget.
	allocBudget(t, "committee", 1500, committeeSpec)
	if b := bytesPerRun(5, runCorrect(t, committeeSpec)); b > 490_000 {
		t.Errorf("committee: %.0f bytes per run, budget 490000", b)
	}
}
