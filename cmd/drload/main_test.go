package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmallLoad is the CLI smoke test: a small run must exit 0, write
// a valid LOAD_ artifact, and record a reply for every query.
func TestRunSmallLoad(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	code := run([]string{
		"-clients", "500", "-conns", "4", "-shards", "2", "-queries", "2",
		"-L", "256", "-window", "64", "-out", dir,
		"-slo-p99", "60000", "-slo-zero-drop",
	}, &b)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, b.String())
	}
	path, f, err := LatestLoad(dir)
	if err != nil || f == nil {
		t.Fatalf("no LOAD artifact in %s: %v", dir, err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("artifact landed in %s", path)
	}
	if f.Queries != 1000 || f.Replies != 1000 || f.Dropped != 0 {
		t.Fatalf("queries=%d replies=%d dropped=%d", f.Queries, f.Replies, f.Dropped)
	}
	if f.P99Ms <= 0 || f.ThroughputQPS <= 0 {
		t.Fatalf("empty measurements: %+v", f)
	}
	if len(f.ShardStats) != 2 {
		t.Fatalf("shard stats: %+v", f.ShardStats)
	}
}

// TestRunSLOBreachExitCode pins the CI contract: an impossible p99 SLO
// must exit 3 and still write the artifact.
func TestRunSLOBreachExitCode(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	code := run([]string{
		"-clients", "100", "-conns", "2", "-shards", "1",
		"-L", "128", "-out", dir,
		"-slo-p99", "0.000001",
	}, &b)
	if code != 3 {
		t.Fatalf("exit %d, want 3:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "SLO BREACH") {
		t.Fatalf("no breach report:\n%s", b.String())
	}
	if _, f, err := LatestLoad(dir); err != nil || f == nil {
		t.Fatalf("breached run wrote no artifact: %v", err)
	}
}

// TestRunBadFlagsExitCode pins flag errors to exit 2.
func TestRunBadFlagsExitCode(t *testing.T) {
	var b strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &b); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
