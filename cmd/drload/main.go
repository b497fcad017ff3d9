// Command drload is the scale gate: it starts one sharded netrt hub and
// drives a fleet of simulated clients against it, measuring closed-loop
// source-query latency and throughput. Logical clients are multiplexed
// over a small number of TCP connections (the client id rides in the
// query tag), so 100k–1M clients run in one process without 1M sockets.
//
// The run is recorded as a schema-versioned LOAD_<timestamp>.json
// (loadfile.go) holding p50/p90/p99/max latency, throughput, the drop
// count, and the hub's per-shard robustness counters. SLO flags turn the
// measurement into a CI gate: -slo-p99 bounds p99 latency and
// -slo-zero-drop requires every query answered. Exit codes: 0 ok, 1 an
// operational failure, 2 bad flags, 3 an SLO breach.
//
// Examples:
//
//	drload -clients 100000 -conns 32 -shards 8
//	drload -clients 50000 -slo-p99 250 -slo-zero-drop -out artifacts/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/netrt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("drload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		clients = fs.Int("clients", 100000, "simulated logical clients")
		conns   = fs.Int("conns", 32, "TCP connections the clients multiplex over")
		shards  = fs.Int("shards", 8, "hub listener shards")
		queries = fs.Int("queries", 1, "queries per client (closed loop)")
		qbits   = fs.Int("qbits", 8, "bits requested per query")
		window  = fs.Int("window", 256, "in-flight clients per connection")
		l       = fs.Int("L", 4096, "source input bits")
		msgBits = fs.Int("b", 64, "message size bits")
		seed    = fs.Int64("seed", 1, "input array seed")
		timeout = fs.Duration("timeout", 120*time.Second, "whole-run deadline")
		out     = fs.String("out", ".", "directory for the LOAD_*.json artifact")
		label   = fs.String("label", "", "label recorded in the artifact")
		sloP99  = fs.Float64("slo-p99", 0, "fail (exit 3) when p99 latency exceeds this many milliseconds; 0 disables")
		sloZero = fs.Bool("slo-zero-drop", false, "fail (exit 3) when any query goes unanswered")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	hub, err := netrt.StartHub(netrt.Config{
		N: *conns, L: *l, MsgBits: *msgBits, Seed: *seed,
		Shards: *shards,
	})
	if err != nil {
		fmt.Fprintf(stdout, "drload: %v\n", err)
		return 1
	}
	defer hub.Close()

	fmt.Fprintf(stdout, "drload: %d clients over %d conns, %d shards, %d queries/client\n",
		*clients, *conns, *shards, *queries)
	res, err := hub.GenerateLoad(netrt.LoadSpec{
		Clients: *clients, Conns: *conns,
		QueriesPerClient: *queries, BitsPerQuery: *qbits,
		Window: *window, Timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintf(stdout, "drload: %v\n", err)
		return 1
	}

	file := &LoadFile{
		Label:   *label,
		Clients: *clients, Conns: *conns, Shards: *shards,
		QueriesPerClient: *queries, BitsPerQuery: *qbits,
		L: *l, MsgBits: *msgBits, Seed: *seed,
		DurationSec: res.Duration.Seconds(),
		Queries:     res.Queries,
		Replies:     res.Replies,
		Dropped:     res.Queries - res.Replies,
		P50Ms:       res.Percentile(50),
		P90Ms:       res.Percentile(90),
		P99Ms:       res.Percentile(99),
		MaxMs:       res.Percentile(100),
	}
	if res.Duration > 0 {
		file.ThroughputQPS = float64(res.Replies) / res.Duration.Seconds()
	}
	for _, s := range hub.ShardStats() {
		file.ShardStats = append(file.ShardStats, LoadShard{
			Enqueued: s.Enqueued, Written: s.Written, Dropped: s.Dropped,
			WriteErrs: s.WriteErrs, Flushes: s.Flushes,
		})
	}

	path, err := WriteLoad(*out, file)
	if err != nil {
		fmt.Fprintf(stdout, "drload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d/%d replies in %.2fs (%.0f q/s)  p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
		file.Replies, file.Queries, file.DurationSec, file.ThroughputQPS,
		file.P50Ms, file.P90Ms, file.P99Ms, file.MaxMs)
	if res.TimedOut {
		fmt.Fprintf(stdout, "drload: run hit the %v deadline; %d queries unanswered\n", *timeout, file.Dropped)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)

	slo := LoadSLO{MaxP99Ms: *sloP99, EnforceDrops: *sloZero}
	if v := file.CheckSLO(slo); len(v) > 0 {
		fmt.Fprintf(stdout, "SLO BREACH:\n")
		for _, s := range v {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		return 3
	}
	if *sloP99 > 0 || *sloZero {
		fmt.Fprintf(stdout, "SLO ok (p99 <= %.0fms, zero-drop=%v)\n", *sloP99, *sloZero)
	}
	return 0
}
