package main

// pathMetrics are end-to-end numbers the driver's contract cannot take as
// such; a traced run reports them, from its untraced repetitions, ahead of
// the layers' metrics. The contract wants every end-to-end metric from every
// workload, steady across seeds: four of these exist on one path only, and
// q3_csr is a quantile of a lattice of small fractions (1/9, 1/7, ...) that a
// cohort of a few functions moves by a fifth.
var pathMetrics = []def{
	{name: "q3_csr", unit: "ratio"},
	{name: "decision_p50_ms", unit: "ms"},
	{name: "decision_p99_ms", unit: "ms"},
	{name: "restore_s", unit: "s"},
	{name: "ingest_s", unit: "s"},
}

// layerMetrics are the metrics of single layers, in the order README.md
// discusses them; the layer is the text before the first dot. A workload that
// does not use a layer reports 0 for its metrics.
var layerMetrics = []def{
	{name: "trace.generate_s", unit: "s"},
	{name: "trace.generate_alloc_mb", unit: "MB"},
	{name: "trace.slot_index_s", unit: "s"},
	{name: "trace.partition_s", unit: "s"},
	{name: "trace.csv.write_s", unit: "s"},
	{name: "trace.csv.read_s", unit: "s"},
	{name: "trace.ingest.rows_per_s", unit: "rows/s", higher: true},
	{name: "trace.ingest.spill_runs", unit: "count"},
	{name: "trace.store.bytes", unit: "bytes"},
	{name: "trace.store.open_s", unit: "s"},
	{name: "trace.store.shard_read_s", unit: "s"},
	{name: "trace.self_s", unit: "s"},

	{name: "classify.categorize_s", unit: "s"},
	{name: "classify.categorize_alloc_mb", unit: "MB"},
	{name: "classify.retrain_s", unit: "s"},
	{name: "classify.retrain_count", unit: "count"},
	{name: "classify.window_build_s", unit: "s"},
	{name: "classify.self_s", unit: "s"},

	{name: "core.train_s", unit: "s"},
	{name: "core.tick_s", unit: "s"},
	{name: "core.tick_count", unit: "count"},
	{name: "core.tick_p50_us", unit: "us"},
	{name: "core.tick_p99_us", unit: "us"},
	{name: "core.tick_allocs", unit: "count"},
	{name: "core.self_s", unit: "s"},

	{name: "sim.step_s", unit: "s"},
	{name: "sim.slots_skipped", unit: "count"},
	{name: "sim.shard.busy_s", unit: "s"},
	{name: "sim.shard.max_shard_s", unit: "s"},
	{name: "sim.shard.event_skew", unit: "ratio"},
	{name: "sim.shard.parallel_efficiency", unit: "ratio", higher: true},
	{name: "sim.shard.unattributed_s", unit: "s"},
	{name: "sim.capacity.lockstep_ratio.faascache", unit: "ratio"},
	{name: "sim.capacity.lockstep_ratio.lcs", unit: "ratio"},
	{name: "sim.mem.peak_heap_mb", unit: "MB"},
	{name: "sim.self_s", unit: "s"},

	{name: "baselines.faascache.run_s", unit: "s"},
	{name: "baselines.lcs.run_s", unit: "s"},
	{name: "baselines.faascache.unsharded_s", unit: "s"},
	{name: "baselines.lcs.unsharded_s", unit: "s"},
	{name: "baselines.faascache.tick_us", unit: "us"},
	{name: "baselines.faascache.tick_allocs", unit: "count"},
	{name: "baselines.lcs.tick_us", unit: "us"},
	{name: "baselines.faascache.cold_starts", unit: "count"},
	{name: "baselines.lcs.cold_starts", unit: "count"},

	{name: "serve.client.encode_s", unit: "s"},
	{name: "serve.http.roundtrip_s", unit: "s"},
	{name: "serve.handler.direct_s", unit: "s"},
	{name: "serve.transport_s", unit: "s"},
	{name: "serve.apply_floor_s", unit: "s"},
	{name: "serve.overhead_s", unit: "s"},
	{name: "serve.request_bytes", unit: "bytes"},
	{name: "serve.journal.bytes", unit: "bytes"},
	{name: "serve.journal.bytes_per_event", unit: "bytes"},
	{name: "serve.snapshot.count", unit: "count"},
	{name: "serve.snapshot.bytes", unit: "bytes"},
	{name: "serve.snapshot_s", unit: "s"},
	{name: "serve.stall_max_ms", unit: "ms"},
	{name: "serve.restore.replayed_records", unit: "count"},
	{name: "serve.restore.snapshots_rejected", unit: "count"},
	{name: "serve.restore.from_seq", unit: "count"},
	{name: "serve.shed_queue", unit: "count"},
	{name: "serve.shed_decision", unit: "count"},
	{name: "serve.retries", unit: "count"},
	{name: "serve.duplicates", unit: "count"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.self_s", unit: "s"},

	{name: "harness.self_s", unit: "s"},
	{name: "trace_overhead_share", unit: "ratio"},
}

// perLayer is what a traced run reports. BENCHMARK.json repeats the list, and
// main_test.go holds the two together.
var perLayer = append(append([]def(nil), pathMetrics...), layerMetrics...)
