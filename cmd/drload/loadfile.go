package main

// A LOAD_ file records one drload run: closed-loop query latency
// percentiles, throughput, and the hub's shard robustness counters. It is
// schema-versioned and timestamp-named. It carries wall-clock scale
// measurements, not deterministic paper metrics, so it is gated against
// absolute SLO thresholds (CheckSLO), which run turns into exit codes.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// LoadSchemaVersion is the LOAD_ format generation drload reads and
// writes; ReadLoad rejects files from other generations.
const LoadSchemaVersion = 1

// LoadFilePrefix is the filename prefix of load-generator outputs.
const LoadFilePrefix = "LOAD_"

// LoadShard is one hub shard's robustness counters at run end (see
// netrt.ShardStats).
type LoadShard struct {
	Enqueued  int64 `json:"enqueued"`
	Written   int64 `json:"written"`
	Dropped   int64 `json:"dropped"`
	WriteErrs int64 `json:"write_errs"`
	Flushes   int64 `json:"flushes"`
}

// LoadFile is one load-generator run.
type LoadFile struct {
	Schema  int    `json:"schema"`
	Created string `json:"created"` // RFC3339, UTC
	Label   string `json:"label,omitempty"`
	Note    string `json:"note,omitempty"`

	// Configuration: logical clients, the TCP connections they are
	// multiplexed over, hub shards, queries issued per client, and the
	// DR-model parameters of the hub's source array.
	Clients          int   `json:"clients"`
	Conns            int   `json:"conns"`
	Shards           int   `json:"shards"`
	QueriesPerClient int   `json:"queries_per_client"`
	BitsPerQuery     int   `json:"bits_per_query"`
	L                int   `json:"l"`
	MsgBits          int   `json:"msg_bits"`
	Seed             int64 `json:"seed"`

	// Outcome. Dropped = Queries - Replies: a query with no reply when
	// the run settled (the zero-drop SLO gates on it).
	DurationSec   float64 `json:"duration_sec"`
	Queries       int64   `json:"queries"`
	Replies       int64   `json:"replies"`
	Dropped       int64   `json:"dropped"`
	ThroughputQPS float64 `json:"throughput_qps"`

	// Closed-loop query latency percentiles, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// ShardStats snapshots the hub's per-shard counters, indexed by shard.
	ShardStats []LoadShard `json:"shard_stats,omitempty"`
}

// LoadFilename returns the canonical name for a load run at time t.
func LoadFilename(t time.Time) string {
	return LoadFilePrefix + t.UTC().Format("20060102T150405Z") + ".json"
}

// WriteLoad stores f in dir under its canonical timestamped name and
// returns the path. Schema and Created are filled in if zero.
func WriteLoad(dir string, f *LoadFile) (string, error) {
	if f.Created == "" {
		f.Created = time.Now().UTC().Format(time.RFC3339)
	}
	t, err := time.Parse(time.RFC3339, f.Created)
	if err != nil {
		return "", fmt.Errorf("bad Created %q: %w", f.Created, err)
	}
	if f.Schema == 0 {
		f.Schema = LoadSchemaVersion
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, LoadFilename(t))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadLoad reads and validates one LOAD_ file.
func ReadLoad(path string) (*LoadFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f LoadFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != LoadSchemaVersion {
		return nil, fmt.Errorf("%s has load schema %d; this build reads schema %d",
			path, f.Schema, LoadSchemaVersion)
	}
	return &f, nil
}

// LatestLoad returns the newest LOAD_*.json in dir, or ("", nil, nil)
// when none exists.
func LatestLoad(dir string) (string, *LoadFile, error) {
	matches, err := filepath.Glob(filepath.Join(dir, LoadFilePrefix+"*.json"))
	if err != nil {
		return "", nil, err
	}
	if len(matches) == 0 {
		return "", nil, nil
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	f, err := ReadLoad(path)
	if err != nil {
		return "", nil, err
	}
	return path, f, nil
}

// LoadSLO bounds a load run. Zero-valued fields are not enforced, except
// MaxDropped, which is enforced when EnforceDrops is set (the useful
// bound is exactly zero).
type LoadSLO struct {
	// MaxP99Ms bounds the p99 closed-loop query latency, milliseconds.
	MaxP99Ms float64
	// EnforceDrops turns on the drop bound; MaxDropped is then the
	// highest acceptable number of unanswered queries (normally 0).
	EnforceDrops bool
	MaxDropped   int64
}

// CheckSLO returns one violation string per breached bound, empty when
// the run is within SLO.
func (f *LoadFile) CheckSLO(slo LoadSLO) []string {
	var v []string
	if slo.MaxP99Ms > 0 && f.P99Ms > slo.MaxP99Ms {
		v = append(v, fmt.Sprintf("p99 latency %.2fms exceeds SLO %.2fms", f.P99Ms, slo.MaxP99Ms))
	}
	if slo.EnforceDrops && f.Dropped > slo.MaxDropped {
		v = append(v, fmt.Sprintf("%d dropped queries exceed SLO %d (queries=%d replies=%d)",
			f.Dropped, slo.MaxDropped, f.Queries, f.Replies))
	}
	return v
}
