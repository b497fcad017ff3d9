package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/oracle"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
)

// e10Oracle reproduces the Section 4 / Theorem 4.2 comparison: the
// Download-based Oracle Data Collection step versus the classical
// every-node-reads-everything baseline, sweeping the network size n.
// Series: baseline per-node cost is flat in n; Download-based per-node
// cost falls ≈ 1/n, so the savings factor grows linearly — the paper's
// point that the DR model makes oracle networks cheaper the larger they
// are. The ODD honest-range property must hold for both.
func e10Oracle(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"n", "network", "per-node bits (base)", "per-node bits (download)",
			"savings", "ODD", "agree"},
		Notes: []string{
			"2f_s+1 = 5 sources (2 Byzantine outliers), m = 32 cells of 64 bits",
			"crash network (crashk download): savings grow ≈ linearly in n (Q = O(L/n))",
			"byzantine network (committee download): savings capped near 1/(2β) (Q ≈ 2βL)",
		},
	}
	ns := []int{8, 16, 32}
	cells := 32
	if cfg.Quick {
		ns = []int{8, 16}
		cells = 8
	}
	for _, n := range ns {
		for _, kind := range []string{"crash", "byzantine"} {
			ocfg := &oracle.Config{
				Nodes: n, NodeFaults: n / 4, SourceFaults: 2,
				Cells: cells, Seed: cfg.Seed + int64(n),
			}
			feeds, err := oracle.GenerateFeeds(ocfg)
			if err != nil {
				return nil, err
			}
			base, err := oracle.RunBaseline(ocfg, feeds)
			if err != nil {
				return nil, err
			}
			faulty := adversary.SpreadFaulty(ocfg.Nodes, ocfg.NodeFaults)
			var runner oracle.DownloadRunner
			switch kind {
			case "crash":
				runner = oracle.NewRunner(ocfg, crashk.New,
					crash(faulty, adversary.NewCrashRandom(ocfg.Seed, faulty, 50*n)),
					adversary.NewRandomUnit(ocfg.Seed))
			case "byzantine":
				runner = oracle.NewRunner(ocfg, committee.New,
					byzantine(faulty, committee.NewLiar),
					adversary.NewRandomUnit(ocfg.Seed+1))
			}
			down, err := oracle.RunDownload(ocfg, feeds, runner)
			if err != nil {
				return nil, err
			}
			if down.DownloadFailures > 0 {
				return nil, fmt.Errorf("E10 n=%d %s: %d download failures", n, kind, down.DownloadFailures)
			}
			t.AddRow(itoa(n), kind,
				itoa(base.PerNodeQueryBits), itoa(down.PerNodeQueryBits),
				fratio(float64(base.PerNodeQueryBits), float64(down.PerNodeQueryBits)),
				fmt.Sprintf("%v/%v", base.ODDHolds, down.ODDHolds),
				fmt.Sprintf("%v", down.AllAgree))
		}
	}
	return t, nil
}
