// Command drbench regenerates the paper's evaluation: Table 1 and every
// per-theorem experiment and ablation, as EXPERIMENTS.md's Markdown tables.
//
// Exit codes: 0 every selected experiment ran, 1 an experiment failed,
// 2 usage.
//
// Examples:
//
//	drbench -list
//	drbench -suite all
//	drbench -suite T1,E2,E7 -quick
//	drbench -suite E10 -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the selected experiments and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list experiments and exit")
		suite = fs.String("suite", "all", "comma-separated experiment IDs, or 'all'")
		quick = fs.Bool("quick", false, "reduced sizes for a fast smoke run")
		csv   = fs.Bool("csv", false, "emit CSV instead of Markdown tables")
		seed  = fs.Int64("seed", 7, "suite seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*suite, "all") {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*suite, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "drbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	failures := 0
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "drbench: %s failed: %v\n", e.ID, err)
			failures++
			continue
		}
		if *csv {
			table.CSV(stdout)
		} else {
			table.Fprint(stdout)
			fmt.Fprintf(stdout, "  [%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}
