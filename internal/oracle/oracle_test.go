package oracle_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/oracle"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

func baseConfig() *oracle.Config {
	return &oracle.Config{
		Nodes: 10, NodeFaults: 3, SourceFaults: 2, Cells: 16, Seed: 42,
	}
}

func TestGenerateFeeds(t *testing.T) {
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds.Values) != cfg.NumSources() {
		t.Fatalf("got %d sources, want %d", len(feeds.Values), cfg.NumSources())
	}
	if len(feeds.ByzantineSources) != cfg.SourceFaults {
		t.Fatalf("got %d byzantine sources", len(feeds.ByzantineSources))
	}
	for j := 0; j < cfg.Cells; j++ {
		if feeds.HonestMin[j] > feeds.HonestMax[j] {
			t.Fatalf("cell %d: empty honest range", j)
		}
		// Honest sources must be inside the range.
		for s := cfg.SourceFaults; s < cfg.NumSources(); s++ {
			v := feeds.Values[s][j]
			if v < feeds.HonestMin[j] || v > feeds.HonestMax[j] {
				t.Fatalf("honest source %d outside honest range", s)
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		got := oracle.Unpack(oracle.Pack(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 3, 2}, 2}, // lower median
		{[]int64{-10, 1e9, 0}, 0},
	}
	for _, tc := range tests {
		if got := oracle.Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBaselineODD(t *testing.T) {
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.RunBaseline(cfg, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ODDHolds {
		t.Fatal("baseline ODD violated despite honest source majority")
	}
	wantPerNode := cfg.NumSources() * cfg.Cells * oracle.CellBits
	if res.PerNodeQueryBits != wantPerNode {
		t.Errorf("per-node = %d, want %d", res.PerNodeQueryBits, wantPerNode)
	}
}

func TestDownloadODCWithCrashNetwork(t *testing.T) {
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := adversary.SpreadFaulty(cfg.Nodes, cfg.NodeFaults)
	runner := oracle.NewRunner(cfg, crashk.New, adversary.NewCrashRandom(cfg.Seed, faulty, 200), adversary.NewRandomUnit(cfg.Seed))
	res, err := oracle.RunDownload(cfg, feeds, runner)
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadFailures != 0 {
		t.Fatalf("%d download failures", res.DownloadFailures)
	}
	if !res.ODDHolds || !res.AllAgree {
		t.Fatalf("ODD=%v agree=%v", res.ODDHolds, res.AllAgree)
	}
	base, err := oracle.RunBaseline(cfg, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNodeQueryBits >= base.PerNodeQueryBits {
		t.Errorf("download per-node %d not below baseline %d",
			res.PerNodeQueryBits, base.PerNodeQueryBits)
	}
}

func TestDownloadODCWithByzantineNetwork(t *testing.T) {
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := adversary.SpreadFaulty(cfg.Nodes, cfg.NodeFaults)
	runner := oracle.NewRunner(cfg, committee.New, sim.Byzantines(faulty, committee.NewLiar), adversary.NewRandomUnit(cfg.Seed+1))
	res, err := oracle.RunDownload(cfg, feeds, runner)
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadFailures != 0 {
		t.Fatalf("%d download failures", res.DownloadFailures)
	}
	if !res.ODDHolds || !res.AllAgree {
		t.Fatalf("ODD=%v agree=%v", res.ODDHolds, res.AllAgree)
	}
}

func TestDownloadFallbackOnFailure(t *testing.T) {
	// A runner whose downloads always fail: nodes fall back to direct
	// reads, ODD must still hold and the failure must be reported.
	cfg := baseConfig()
	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(input *bitarray.Array, seed int64) (*sim.Result, error) {
		res := &sim.Result{PerPeer: make([]sim.PeerStats, cfg.Nodes)}
		for i := range res.PerPeer {
			res.PerPeer[i] = sim.PeerStats{ID: sim.PeerID(i), Honest: true}
		}
		res.Finalize(input) // nobody terminated → incorrect
		return res, nil
	}
	res, err := oracle.RunDownload(cfg, feeds, runner)
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadFailures != cfg.NumSources() {
		t.Errorf("failures = %d, want %d", res.DownloadFailures, cfg.NumSources())
	}
	if !res.ODDHolds {
		t.Error("fallback path violated ODD")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*oracle.Config{
		{Nodes: 1, Cells: 4},
		{Nodes: 4, NodeFaults: 4, Cells: 4},
		{Nodes: 4, NodeFaults: -1, Cells: 4},
		{Nodes: 4, SourceFaults: -1, Cells: 4},
		{Nodes: 4, Cells: 0},
	}
	for i, cfg := range bad {
		if _, err := oracle.GenerateFeeds(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMedianFiltersByzantineSources(t *testing.T) {
	// Directly verify the honest-majority median property on adversarial
	// spreads.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		fs := rng.Intn(4)
		ns := 2*fs + 1
		honest := make([]int64, 0, fs+1)
		col := make([]int64, 0, ns)
		for s := 0; s < ns; s++ {
			if s < fs {
				col = append(col, int64(rng.Uint64()))
			} else {
				v := int64(1000 + rng.Intn(10))
				honest = append(honest, v)
				col = append(col, v)
			}
		}
		med := oracle.Median(col)
		min, max := honest[0], honest[0]
		for _, v := range honest {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if med < min || med > max {
			t.Fatalf("trial %d: median %d outside honest [%d, %d]", trial, med, min, max)
		}
	}
}
