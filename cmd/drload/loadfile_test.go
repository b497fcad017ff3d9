package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleLoad() *LoadFile {
	return &LoadFile{
		Clients: 50000, Conns: 32, Shards: 8, QueriesPerClient: 2,
		BitsPerQuery: 8, L: 256, MsgBits: 64, Seed: 1,
		DurationSec: 3.5, Queries: 100000, Replies: 100000,
		ThroughputQPS: 28571.4,
		P50Ms:         1.2, P90Ms: 3.4, P99Ms: 9.8, MaxMs: 40.1,
		ShardStats: []LoadShard{{Enqueued: 100000, Written: 100000, Flushes: 9000}},
	}
}

func TestLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := sampleLoad()
	path, err := WriteLoad(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, LoadFilePrefix) {
		t.Fatalf("path %q missing %q prefix", path, LoadFilePrefix)
	}
	got, err := ReadLoad(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != LoadSchemaVersion {
		t.Fatalf("schema = %d", got.Schema)
	}
	if got.Clients != f.Clients || got.P99Ms != f.P99Ms || got.Queries != f.Queries {
		t.Fatalf("round-trip drift: %+v", got)
	}
	if len(got.ShardStats) != 1 || got.ShardStats[0].Written != 100000 {
		t.Fatalf("shard stats drift: %+v", got.ShardStats)
	}
	lpath, latest, err := LatestLoad(dir)
	if err != nil || lpath != path || latest == nil {
		t.Fatalf("LatestLoad: %q %v %v", lpath, latest, err)
	}
}

func TestLoadFileSchemaRejected(t *testing.T) {
	dir := t.TempDir()
	f := sampleLoad()
	f.Schema = LoadSchemaVersion + 1
	path, err := WriteLoad(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLoad(path); err == nil {
		t.Fatal("wrong-schema file accepted")
	}
}

func TestLoadSLO(t *testing.T) {
	f := sampleLoad()
	if v := f.CheckSLO(LoadSLO{}); len(v) != 0 {
		t.Fatalf("empty SLO violated: %v", v)
	}
	if v := f.CheckSLO(LoadSLO{MaxP99Ms: 100, EnforceDrops: true}); len(v) != 0 {
		t.Fatalf("passing run flagged: %v", v)
	}
	if v := f.CheckSLO(LoadSLO{MaxP99Ms: 5}); len(v) != 1 || !strings.Contains(v[0], "p99") {
		t.Fatalf("latency breach not flagged: %v", v)
	}
	f.Dropped = 3
	v := f.CheckSLO(LoadSLO{MaxP99Ms: 5, EnforceDrops: true})
	if len(v) != 2 {
		t.Fatalf("want latency + drop violations, got %v", v)
	}
	if v := f.CheckSLO(LoadSLO{MaxDropped: 0}); len(v) != 0 {
		t.Fatal("drop bound enforced without EnforceDrops")
	}
}

// TestOlderLoadFileStillReads: a file written while the hub had a shard
// queue carries a per-shard "blocked" count; it reads, and the counters
// that remain come through.
func TestOlderLoadFileStillReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), LoadFilename(time.Unix(0, 0)))
	old := `{"schema":1,"created":"2026-01-01T00:00:00Z","clients":10,"conns":1,"queries":10,"replies":10,
		"shard_stats":[{"enqueued":20,"written":20,"dropped":0,"blocked":3,"write_errs":0,"flushes":4}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ReadLoad(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ShardStats) != 1 || f.ShardStats[0].Written != 20 || f.ShardStats[0].Flushes != 4 {
		t.Fatalf("shard stats: %+v", f.ShardStats)
	}
}
