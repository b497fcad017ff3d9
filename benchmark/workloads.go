package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/download"
	"repro/internal/bitarray"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/source"
)

// shape is what the micro-rows copy from a workload, so that a layer is
// timed on inputs of the size the workload feeds it.
type shape struct {
	N, L, MsgBits int
	QueryBits     int // indices per source query
	LeafBits      int // Merkle leaf width; 0 without mirrors
	Protocol      download.Protocol
	TCP           bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// params is recorded in results.json so a reader of the numbers has
	// the cell that produced them.
	params map[string]any
	// layers lists the modules on the workload's path. The others are
	// predicted flat here and their per-layer metrics read 0.
	layers map[string]bool
	// minUnits is how many ops (load trials on hub-load) a pass runs even
	// if -seconds ends sooner; minSamples the latency samples that
	// guarantees, which fixes the tail percentile.
	minUnits, minSamples int
	shape                shape
	// op runs one unit: one download, or one load trial.
	op func(c *opCtx) unit
}

func on(layers ...string) map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}

// minDownloads is the op count of every download workload: 40 ops leave
// exactly ten samples beyond p75.
const minDownloads = 40

// loadTrial is one hub-load trial: 25 000 closed-loop clients, four
// queries each, over nproc connections with 256 in flight per connection.
var loadTrial = netrt.LoadSpec{Clients: 25000, Conns: 2, QueriesPerClient: 4, BitsPerQuery: 8, Window: 256}

func workloads() []*workload {
	return []*workload{
		{
			name: "des-crashk",
			why:  "crash-majority Table-1 row on the simulator: crashk logic, intset/bitarray range ops and allocation, no sockets and no wire",
			params: map[string]any{"runtime": "des", "protocol": "crashk-fast", "N": 128, "T": 115, "L": 4096,
				"behavior": "crash", "faulty": 115},
			layers: on("bitarray", "des", "protocols", "download"), minUnits: minDownloads, minSamples: minDownloads,
			shape: shape{N: 128, L: 4096, MsgBits: 64, QueryBits: 64, Protocol: download.CrashKFast},
			op: downloadOp(download.Options{Protocol: download.CrashKFast, N: 128, T: 115, L: 4096,
				Behavior: download.CrashImmediate}, false),
		},
		{
			name: "des-committee",
			why:  "Byzantine-minority committee on the simulator: 3.2 M messages through the des send/heap path and vote counting, little bitarray",
			params: map[string]any{"runtime": "des", "protocol": "committee", "N": 128, "T": 63, "L": 2048,
				"behavior": "liar", "faulty": 63},
			layers: on("bitarray", "des", "protocols", "download"), minUnits: minDownloads, minSamples: minDownloads,
			shape: shape{N: 128, L: 2048, MsgBits: 64, QueryBits: 2048 / 128, Protocol: download.Committee},
			op: downloadOp(download.Options{Protocol: download.Committee, N: 128, T: 63, L: 2048,
				Behavior: download.Liar}, false),
		},
		{
			name: "tcp-crashk",
			why:  "the protocol of des-crashk with the simulator swapped for wire + netrt frames, hub relay, ARQ acks and shard writers on loopback TCP",
			params: map[string]any{"runtime": "tcp", "protocol": "crashk-fast", "N": 16, "T": 8, "L": 65536,
				"behavior": "crash", "faulty": 8},
			layers: on("bitarray", "protocols", "wire", "source", "netrt", "download"), minUnits: minDownloads, minSamples: minDownloads,
			shape: shape{N: 16, L: 65536, MsgBits: 65536 / 16, QueryBits: 65536 / 16, Protocol: download.CrashKFast, TCP: true},
			op: downloadOp(download.Options{Protocol: download.CrashKFast, N: 16, T: 8, L: 65536,
				Behavior: download.CrashImmediate, TCP: true}, false),
		},
		{
			name: "tcp-naive-bmaj",
			why:  "the paper's headline regime, beta above 1/2: naive over sockets behind Byzantine-majority mirrors, so netrt is a query/proof pipe and source fallback, merkle.Verify and the QPROOF codec do the work",
			params: map[string]any{"runtime": "tcp", "protocol": "naive", "N": 16, "T": 9, "L": 262144,
				"behavior": "crash", "faulty": 9, "mirrors": "mirrors=5,byz=3,behavior=mixed,leaf=64,seed=<derived>"},
			layers: on("bitarray", "protocols", "merkle", "source", "netrt", "download"), minUnits: minDownloads, minSamples: minDownloads,
			shape: shape{N: 16, L: 262144, MsgBits: 262144 / 16, QueryBits: 262144, LeafBits: 64, Protocol: download.Naive, TCP: true},
			op: downloadOp(download.Options{Protocol: download.Naive, N: 16, T: 9, L: 262144,
				Behavior: download.CrashImmediate, TCP: true}, true),
		},
		{
			name: "hub-load",
			why:  "the hub as a query service at saturation: smallest frames, closed loop with 512 queries in flight, so per-frame cost and shard batching set the result and payload size does not",
			params: map[string]any{"hub": "N=2 Shards=2 ShardQueue=1024 L=4096", "clients": loadTrial.Clients,
				"conns": loadTrial.Conns, "queries_per_client": loadTrial.QueriesPerClient,
				"bits_per_query": loadTrial.BitsPerQuery, "window": loadTrial.Window, "loop": "closed"},
			layers: on("source", "netrt"), minUnits: 1, minSamples: loadTrial.Clients * loadTrial.QueriesPerClient,
			shape: shape{N: 2, L: 4096, MsgBits: 64, QueryBits: loadTrial.BitsPerQuery, TCP: true},
			op:    loadOp,
		},
		{
			name: "tcp-storm",
			why:  "the layers of tcp-crashk on their recovery paths: drops, dups, reordering, a flaky source, three crashed peers and one churn peer rejoining from a durable checkpoint",
			params: map[string]any{"runtime": "tcp (netrt.Run)", "protocol": "crashk-fast", "N": 16, "T": 4, "L": 65536,
				"absent": stormAbsent, "churn": "peer 1 CrashAfter=60 Downtime=0.05", "shards": 2,
				"faults": "Drop=.02 Dup=.02 Delay=2ms Reorder=.05 seed=<derived>", "source_faults": "fail=0.1,seed=<derived>",
				"resilience": "QueryTimeout=60ms RTO=30ms", "source_policy": "BaseBackoff=0.02 MaxBackoff=0.2 Deadline=0.25 BreakerCooldown=0.1"},
			layers: on("bitarray", "protocols", "wire", "source", "netrt", "checkpoint"), minUnits: minDownloads, minSamples: minDownloads,
			shape: shape{N: 16, L: 65536, MsgBits: 65536 / 16, QueryBits: 65536 / 16, Protocol: download.CrashKFast, TCP: true},
			op:    stormOp,
		},
	}
}

// opCtx is what one unit gets from the harness.
type opCtx struct {
	w       *workload
	opSeed  int64
	id      string // workload/seed, shared by the unit's spans
	tr      *tracer
	reg     *obs.Registry // nil unless traced
	tl      *obs.Timeline
	workers int
	scratch string        // directory for files the unit writes
	pins    map[int64]pin // des pins at the run's -seed; nil otherwise
	cost    cost          // filled by measure
}

// unit is the outcome of one download or one load trial.
type unit struct {
	busy              time.Duration // wall time inside the system
	samples           []float64     // op latencies in ms
	attempted, failed int
	payloadBits       float64
	q                 float64 // query bits per peer
	out               outcome
	failures          []string
}

// outcome is what the harness keeps of a download's report, whichever
// entry point produced it.
type outcome struct {
	Q, Msgs, MsgBits, Events int
	Time                     float64
	Correct                  bool
	Failures                 []string
	Output                   []bool

	SourceFailures, SourceRetries, BreakerOpens, Deferred int
	MirrorHits, ProofFailures, FallbackQueries            int
	Rejoins, WarmHitBits, CkptSaves, CkptRestores         int
}

func fromReport(r *download.Report) outcome {
	return outcome{Q: r.Q, Msgs: r.Msgs, MsgBits: r.MsgBits, Events: r.Events, Time: r.Time,
		Correct: r.Correct, Failures: r.Failures, Output: r.Output,
		SourceFailures: r.SourceFailures, SourceRetries: r.SourceRetries, BreakerOpens: r.BreakerOpens,
		Deferred: r.DeferredQueries, MirrorHits: r.MirrorHits, ProofFailures: r.ProofFailures,
		FallbackQueries: r.FallbackQueries, Rejoins: r.Rejoins, WarmHitBits: r.WarmHitBits,
		CkptSaves: r.CheckpointSaves, CkptRestores: r.CheckpointRestores}
}

// fromResult keeps the first honest peer's output only if every honest
// peer output the same array, so one comparison against the input covers
// them all.
func fromResult(r *sim.Result) outcome {
	o := outcome{Q: r.Q, Msgs: r.Msgs, MsgBits: r.MsgBits, Events: r.Events, Time: r.Time,
		Correct: r.Correct, Failures: r.Failures,
		SourceFailures: r.SourceFailures, SourceRetries: r.SourceRetries, BreakerOpens: r.BreakerOpens,
		Deferred: r.DeferredQueries, MirrorHits: r.MirrorHits, ProofFailures: r.ProofFailures,
		FallbackQueries: r.FallbackQueries, Rejoins: r.Rejoins, WarmHitBits: r.WarmHitBits,
		CkptSaves: r.CheckpointSaves, CkptRestores: r.CheckpointRestores}
	var first *bitarray.Array
	for i := range r.PerPeer {
		ps := &r.PerPeer[i]
		if !ps.Honest {
			continue
		}
		if ps.Output == nil || (first != nil && !first.Equal(ps.Output)) {
			return o // Output stays nil: the comparison fails
		}
		if first == nil {
			first = ps.Output
		}
	}
	if first != nil {
		o.Output = make([]bool, first.Len())
		for i := range o.Output {
			o.Output[i] = first.Get(i)
		}
	}
	return o
}

// pin is the exact paper-metric tuple of one des op at the default seed.
type pin struct {
	Seed   int64   `json:"seed"`
	Q      int     `json:"q"`
	Msgs   int     `json:"msgs"`
	Events int     `json:"events"`
	Time   float64 `json:"time"`
}

func pinOf(seed int64, o *outcome) pin {
	return pin{Seed: seed, Q: o.Q, Msgs: o.Msgs, Events: o.Events, Time: o.Time}
}

// genInput makes the op's source array from its seed.
func genInput(seed int64, l int) *bitarray.Array {
	return bitarray.Random(rand.New(rand.NewSource(seed)), l)
}

func toBools(a *bitarray.Array) []bool {
	out := make([]bool, a.Len())
	for i := range out {
		out[i] = a.Get(i)
	}
	return out
}

// verifyDownload lists every reason one download counts as failed; an op
// with any reason counts as one failure. wantQ > 0 asserts Report.Q.
func verifyDownload(o *outcome, err error, input []bool, p *pin, opSeed int64, wantQ int) []string {
	if err != nil {
		return []string{"run: " + err.Error()}
	}
	var why []string
	if !o.Correct {
		why = append(why, fmt.Sprintf("report not correct: %v", o.Failures))
	}
	if len(o.Output) != len(input) {
		why = append(why, fmt.Sprintf("output has %d bits, input %d", len(o.Output), len(input)))
	} else {
		for i := range input {
			if o.Output[i] != input[i] {
				why = append(why, fmt.Sprintf("output differs from the input at bit %d", i))
				break
			}
		}
	}
	if p != nil {
		if got := pinOf(opSeed, o); got != *p {
			why = append(why, fmt.Sprintf("pin mismatch: got (Q,Msgs,Events,Time)=(%d,%d,%d,%v) want (%d,%d,%d,%v)",
				got.Q, got.Msgs, got.Events, got.Time, p.Q, p.Msgs, p.Events, p.Time))
		}
	}
	if wantQ > 0 && o.Q != wantQ {
		why = append(why, fmt.Sprintf("Q=%d, want L=%d", o.Q, wantQ))
	}
	return why
}

// verifyLoad counts the failed queries of one load trial: each unanswered
// query once, and at least one when the trial timed out.
func verifyLoad(res *netrt.LoadResult, dropped int64) (failed int, why []string) {
	failed = int(res.Queries - res.Replies)
	if failed > 0 {
		why = append(why, fmt.Sprintf("%d of %d queries unanswered", failed, res.Queries))
	}
	if res.TimedOut && failed == 0 {
		failed = 1
		why = append(why, "load trial timed out")
	}
	if dropped > 0 {
		why = append(why, fmt.Sprintf("hub shards dropped %d frames", dropped))
		failed = max(failed, 1)
	}
	return failed, why
}

// finishDownload turns a verified outcome into a unit.
func finishDownload(c *opCtx, o outcome, why []string, honest int) unit {
	u := unit{busy: c.cost.wall, samples: []float64{ms(c.cost.wall)}, attempted: 1,
		payloadBits: float64(honest * c.w.shape.L), q: float64(o.Q), out: o, failures: why}
	if len(why) > 0 {
		u.failed, u.payloadBits = 1, 0 // a failed download delivered nothing
	}
	return u
}

// downloadOp drives download.Run. Everything the system sees — op seed,
// input array, mirror-plan seed — is derived from the op seed. mirrors
// adds the Byzantine-majority mirror fleet and the paper's Q = L check.
func downloadOp(tmpl download.Options, mirrors bool) func(c *opCtx) unit {
	return func(c *opCtx) unit {
		opts := tmpl
		opts.Seed = c.opSeed
		opts.Workers = c.workers
		opts.Metrics, opts.Timeline = c.reg, c.tl
		input := toBools(genInput(deriveSeed(c.opSeed, c.w.name, "input", 0), opts.L))
		opts.Input = input
		wantQ := 0
		if mirrors {
			opts.Mirrors = fmt.Sprintf("mirrors=5,byz=3,behavior=mixed,leaf=%d,seed=%d",
				c.w.shape.LeafBits, deriveSeed(c.opSeed, c.w.name, "mirrors", 0))
			wantQ = opts.L
		}
		var rep *download.Report
		var err error
		c.measure("download.Run", func() { rep, err = download.Run(opts) })
		defer c.tr.begin("verify.output", c.id)()
		var o outcome
		if err == nil {
			o = fromReport(rep)
		}
		var p *pin
		if v, ok := c.pins[c.opSeed]; ok {
			p = &v
		}
		return finishDownload(c, o, verifyDownload(&o, err, input, p, c.opSeed, wantQ), opts.N-opts.T)
	}
}

// stormAbsent never connect; stormChurn crashes mid-run and rejoins.
var stormAbsent = []sim.PeerID{3, 8, 13}

const stormChurn = sim.PeerID(1)

// stormOp drives netrt.Run directly, because download.Options exposes
// neither the network fault plan nor the shard count. The timers are a
// tenth of the defaults: at the defaults an op is 0.9 s of which almost
// all is query-timeout and source-backoff sleep, which would measure the
// constants and not the recovery code.
func stormOp(c *opCtx) unit {
	sh := c.w.shape
	dir := filepath.Join(c.scratch, fmt.Sprintf("ckpt-%d", c.opSeed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return unit{attempted: 1, failed: 1, failures: []string{err.Error()}}
	}
	defer os.RemoveAll(dir)
	input := genInput(deriveSeed(c.opSeed, c.w.name, "input", 0), sh.L)
	cfg := netrt.Config{
		N: sh.N, T: 4, L: sh.L, MsgBits: sh.MsgBits, Seed: c.opSeed, Input: input,
		NewPeer: crashk.NewFast, Label: string(sh.Protocol),
		Absent:        stormAbsent,
		Churn:         []sim.ChurnPeer{{Peer: stormChurn, CrashAfter: 60, Downtime: 0.05}},
		CheckpointDir: dir,
		Faults: &netrt.FaultPlan{Seed: deriveSeed(c.opSeed, c.w.name, "faults", 0),
			Drop: .02, Dup: .02, Delay: 2 * time.Millisecond, Reorder: .05},
		SourceFaults: &source.FaultPlan{Seed: deriveSeed(c.opSeed, c.w.name, "source", 0), FailRate: 0.1},
		SourcePolicy: source.Policy{BaseBackoff: 0.02, MaxBackoff: 0.2, Deadline: 0.25, BreakerCooldown: 0.1},
		Resilience:   netrt.Resilience{QueryTimeout: 60 * time.Millisecond, RTO: 30 * time.Millisecond},
		Shards:       2,
		Metrics:      c.reg, Timeline: c.tl,
	}
	var res *sim.Result
	var err error
	c.measure("netrt.Run", func() { res, err = netrt.Run(cfg) })
	defer c.tr.begin("verify.output", c.id)()
	var o outcome
	if err == nil {
		o = fromResult(res)
	}
	return finishDownload(c, o, verifyDownload(&o, err, toBools(input), nil, c.opSeed, 0), sh.N-len(stormAbsent)-1)
}

// loadOp is one hub-load trial: a fresh hub (a hub serves one generation
// of connections), one GenerateLoad, the shard counters, close. Each
// query is an op; the payload is the bits the replies carried.
func loadOp(c *opCtx) unit {
	sh := c.w.shape
	input := genInput(deriveSeed(c.opSeed, c.w.name, "input", 0), sh.L)
	end := c.tr.begin("hub.start", c.id)
	hub, err := netrt.StartHub(netrt.Config{N: sh.N, Shards: 2, ShardQueue: 1024, L: sh.L, MsgBits: sh.MsgBits,
		Seed: c.opSeed, Input: input, Metrics: c.reg, Timeline: c.tl, Label: "hub-load"})
	end()
	if err != nil {
		return unit{attempted: 1, failed: 1, failures: []string{"StartHub: " + err.Error()}}
	}
	var res *netrt.LoadResult
	c.measure("load.generate", func() { res, err = hub.GenerateLoad(loadTrial) })
	var dropped int64
	for _, s := range hub.ShardStats() {
		dropped += s.Dropped
	}
	end = c.tr.begin("hub.close", c.id)
	hub.Close()
	end()
	if err == nil && res.Queries == 0 {
		err = errors.New("no query was sent")
	}
	if err != nil {
		return unit{attempted: 1, failed: 1, failures: []string{"GenerateLoad: " + err.Error()}}
	}
	failed, why := verifyLoad(res, dropped)
	bits := float64(res.Replies) * float64(loadTrial.BitsPerQuery)
	return unit{busy: res.Duration, samples: res.LatenciesMs, attempted: int(res.Queries), failed: failed,
		payloadBits: bits, q: bits / float64(loadTrial.Conns), failures: why}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
