// Command oracledemo walks through the paper's Section 4 application: a
// blockchain-oracle network collecting price feeds from partly-Byzantine
// external sources, comparing the classical Oracle Data Collection step
// (every node reads everything) with the Download-based one (Thm 4.2).
//
// Example:
//
//	oracledemo -nodes 16 -cells 32 -sourcefaults 2 -network byzantine
//
// Exit codes: 0 when the Download-based collection keeps the honest range
// and every honest node agrees, 1 when it does not, 2 on a usage error or
// a scenario that cannot run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/adversary"
	"repro/internal/oracle"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oracledemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes   = fs.Int("nodes", 16, "oracle network size n")
		nFaults = fs.Int("nodefaults", -1, "faulty oracle nodes (-1 means n/4)")
		sFaults = fs.Int("sourcefaults", 2, "Byzantine data sources f_s (2f_s+1 used)")
		cells   = fs.Int("cells", 32, "values per source")
		network = fs.String("network", "byzantine", "oracle-network fault model: crash|byzantine")
		seed    = fs.Int64("seed", 42, "scenario seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &oracle.Config{
		Nodes:        *nodes,
		NodeFaults:   *nFaults,
		SourceFaults: *sFaults,
		Cells:        *cells,
		Seed:         *seed,
	}
	if cfg.NodeFaults == -1 {
		cfg.NodeFaults = cfg.Nodes / 4
	}

	feeds, err := oracle.GenerateFeeds(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "oracledemo: %v\n", err)
		return 2
	}
	faulty := adversary.SpreadFaulty(cfg.Nodes, cfg.NodeFaults)
	var runner oracle.DownloadRunner
	switch *network {
	case "crash":
		runner = oracle.NewRunner(cfg, crashk.New,
			adversary.NewCrashRandom(cfg.Seed, faulty, 50*cfg.Nodes), adversary.NewRandomUnit(cfg.Seed))
	case "byzantine":
		runner = oracle.NewRunner(cfg, committee.New,
			sim.Byzantines(faulty, committee.NewLiar), adversary.NewRandomUnit(cfg.Seed))
	default:
		fmt.Fprintf(stderr, "oracledemo: unknown network model %q\n", *network)
		return 2
	}
	fmt.Fprintf(stdout, "scenario: %d oracle nodes (%d %s-faulty), %d sources (%d Byzantine), %d cells\n",
		cfg.Nodes, cfg.NodeFaults, *network, cfg.NumSources(), cfg.SourceFaults, cfg.Cells)
	fmt.Fprintf(stdout, "honest range of cell 0: [%d, %d]; a Byzantine source reports %d\n\n",
		feeds.HonestMin[0], feeds.HonestMax[0], feeds.Values[0][0])

	base, err := oracle.RunBaseline(cfg, feeds)
	if err != nil {
		fmt.Fprintf(stderr, "oracledemo: baseline: %v\n", err)
		return 2
	}

	down, err := oracle.RunDownload(cfg, feeds, runner)
	if err != nil {
		fmt.Fprintf(stderr, "oracledemo: download ODC: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "%-28s %-18s %-18s\n", "", "baseline ODC", "Download ODC (Thm 4.2)")
	fmt.Fprintf(stdout, "%-28s %-18d %-18d\n", "per-node query bits (max)", base.PerNodeQueryBits, down.PerNodeQueryBits)
	fmt.Fprintf(stdout, "%-28s %-18d %-18d\n", "total query bits", base.TotalQueryBits, down.TotalQueryBits)
	fmt.Fprintf(stdout, "%-28s %-18v %-18v\n", "ODD (honest range) holds", base.ODDHolds, down.ODDHolds)
	fmt.Fprintf(stdout, "%-28s %-18v %-18v\n", "all honest nodes agree", base.AllAgree, down.AllAgree)
	fmt.Fprintf(stdout, "%-28s %-18s %-18d\n", "download failures", "-", down.DownloadFailures)
	fmt.Fprintf(stdout, "\nper-node savings factor: %.1fx (grows ≈ linearly with n)\n",
		float64(base.PerNodeQueryBits)/float64(down.PerNodeQueryBits))
	fmt.Fprintf(stdout, "published cell 0: %d (honest range [%d, %d])\n",
		down.Published[0], feeds.HonestMin[0], feeds.HonestMax[0])

	if !down.ODDHolds || !down.AllAgree {
		return 1
	}
	return 0
}
