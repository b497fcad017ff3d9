package main

// metricDef names one metric. BENCHMARK.json repeats these tables for the
// driver; TestBenchmarkJSONMatchesHarness keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, per workload, tracing off.
// An op is one whole download, or one query on hub-load. The failure
// ratio is the result line's failed/attempted, not a metric here, because
// on a healthy commit it is 0 and a regression bound is a share of the
// parent's value.
//
// The wall-time bounds are as wide as a bound may be. On the 2-core VM
// this was sized on, ten quiet runs spread 2-8 % around their median, but
// the host has minutes-long phases in which memory-bound ops run 20-45 %
// slower (CPU time rises with wall time, steal stays 0, and a spin loop
// slows by a tenth of that: cache contention from neighbours). A
// narrower bound would reject the code for the machine's mood.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_tail_ms", "ms", lower, 0.25},
	{"goodput_mbit_s", "Mbit/s", higher, 0.25},
	{"alloc_bytes_per_payload_bit", "B/bit", lower, 0.10},
	{"q_bits_per_peer", "bit", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is the traced pass: counts read from reports and the obs
// registry, micro-rows timed on inputs shaped like the workload's, and
// the harness's own diagnostics. A layer that is not on a workload's path
// reads 0 there — that is the "predicted flat" column of the README made
// checkable.
var perLayer = []metricDef{
	{"bitarray.learn_range_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.copy_from_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.unknown_in_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.append_to_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.from_bytes_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.first_diff_ns_per_kbit", "ns/kbit", lower, 0},
	{"bitarray.allocs_per_learn", "count", lower, 0},

	{"des.events_per_s", "1/s", higher, 0},
	{"des.msgs_per_s", "1/s", higher, 0},
	{"des.ns_per_event", "ns", lower, 0},
	{"des.null_ns_per_event", "ns", lower, 0},
	{"des.dispatch_p50_us", "us", lower, 0},
	{"des.queue_depth_p90", "count", lower, 0},
	{"des.workers_speedup", "ratio", higher, 0},

	{"protocols.crashk.cpu_share_est", "%", lower, 0},
	{"protocols.committee.cpu_share_est", "%", lower, 0},
	{"protocols.vtime", "vtime", lower, 0},
	{"protocols.msgs_per_op", "count", lower, 0},
	{"protocols.msg_bits_per_op", "bit", lower, 0},

	{"wire.marshal_ns_per_msg", "ns", lower, 0},
	{"wire.unmarshal_ns_per_msg", "ns", lower, 0},
	{"wire.marshal_allocs", "count", lower, 0},
	{"wire.unmarshal_allocs", "count", lower, 0},
	{"wire.bytes_per_payload_bit", "B/bit", lower, 0},

	{"merkle.build_ms", "ms", lower, 0},
	{"merkle.prove_us", "us", lower, 0},
	{"merkle.verify_us_per_kbit", "us/kbit", lower, 0},
	{"merkle.proof_bytes", "B", lower, 0},
	{"merkle.verify_allocs", "count", lower, 0},

	{"source.trusted_fetch_ns_per_kbit", "ns/kbit", lower, 0},
	{"source.mirrored_fetch_us", "us", lower, 0},
	{"source.client_step_ns", "ns", lower, 0},
	{"source.failures", "count", lower, 0},
	{"source.retries", "count", lower, 0},
	{"source.breaker_opens", "count", lower, 0},
	{"source.deferred", "count", lower, 0},
	{"source.mirror_hits", "count", higher, 0},
	{"source.proof_failures", "count", lower, 0},
	{"source.fallback_queries", "count", lower, 0},
	{"source.fallback_ratio", "ratio", lower, 0},

	{"netrt.frames_per_op.msg", "count", lower, 0},
	{"netrt.frames_per_op.query", "count", lower, 0},
	{"netrt.frames_per_op.qreply", "count", lower, 0},
	{"netrt.frames_per_op.qproof", "count", lower, 0},
	{"netrt.frames_per_op.ack", "count", lower, 0},
	{"netrt.wire_bytes_per_payload_bit", "B/bit", lower, 0},
	{"netrt.ack_frame_ratio", "ratio", lower, 0},
	{"netrt.shard_batch_frames_p50", "count", higher, 0},
	{"netrt.flushes_per_kframe", "count", lower, 0},
	{"netrt.shard_blocked", "count", lower, 0},
	{"netrt.shard_dropped", "count", lower, 0},
	{"netrt.query_retries", "count", lower, 0},
	{"netrt.reconnects", "count", lower, 0},
	{"netrt.dups_dropped", "count", lower, 0},
	{"netrt.plan_dropped", "count", lower, 0},
	{"netrt.rejoins", "count", lower, 0},
	{"netrt.warm_hit_bits", "bit", higher, 0},
	{"netrt.hub_start_ms", "ms", lower, 0},
	{"netrt.query_rtt_unloaded_us", "us", lower, 0},
	{"netrt.proofframe_roundtrip_us", "us", lower, 0},

	{"checkpoint.save_us", "us", lower, 0},
	{"checkpoint.load_us", "us", lower, 0},
	{"checkpoint.bytes", "B", lower, 0},
	{"checkpoint.saves", "count", lower, 0},
	{"checkpoint.restores", "count", lower, 0},

	{"download.fixed_overhead_us", "us", lower, 0},

	{"harness.samples", "count", higher, 0},
	{"harness.op_p90_ms", "ms", lower, 0},
	{"harness.op_p99_ms", "ms", lower, 0},
	{"harness.op_max_ms", "ms", lower, 0},
	{"harness.op_iqr_pct", "%", lower, 0},
	{"harness.cpu_ms_per_op", "ms", lower, 0},
	{"harness.peak_rss_mb", "MB", lower, 0},
	{"harness.gc_cycles_per_op", "count", lower, 0},
	{"harness.gc_pause_ms_per_op", "ms", lower, 0},
	{"harness.allocs_k_per_op", "count", lower, 0},
	{"harness.trace_overhead_pct", "%", lower, 0},
	{"harness.budget_unexplained_pct", "%", lower, 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each definition's unit to its value. Every defined
// metric is present in the result; one the run did not set reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
