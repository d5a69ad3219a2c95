package main

// metricDef names a metric with its unit and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndDefs are printed by every untraced run, on every workload.
var endToEndDefs = []metricDef{
	{"report_ms_p50", "ms", "lower"},
	{"report_ms_tail", "ms", "lower"},
	{"freshness_ms_p50", "ms", "lower"},
	{"reports_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"precision", "ratio", "higher"},
	{"recall", "ratio", "higher"},
	{"heap_live_mb", "MB", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayerDefs are printed by every traced run, on every workload; a
// layer the workload does not run reads 0.
var perLayerDefs = []metricDef{
	{"compile.ms", "ms", "lower"},
	{"collect.ms", "ms", "lower"},
	{"collect.switches_read", "count", "lower"},
	{"collect.rules_copied", "count", "lower"},
	{"equiv.base_build_ms", "ms", "lower"},
	{"equiv.check_ms", "ms", "lower"},
	{"equiv.fingerprint_ms", "ms", "lower"},
	{"equiv.switches_checked", "count", "lower"},
	{"equiv.encode_hit_ratio", "ratio", "higher"},
	{"equiv.fold_hit_ratio", "ratio", "higher"},
	{"bdd.base_nodes", "nodes", "lower"},
	{"bdd.delta_nodes", "nodes", "lower"},
	{"bdd.opcache_hit_ratio", "ratio", "higher"},
	{"bdd.compactions", "count", "lower"},
	{"risk.controller_build_ms", "ms", "lower"},
	{"risk.switch_model_ms", "ms", "lower"},
	{"risk.augment_ms", "ms", "lower"},
	{"risk.failed_edges", "count", "lower"},
	{"localize.ms", "ms", "lower"},
	{"localize.plan_compiles", "count", "lower"},
	{"localize.plan_reuse_ratio", "ratio", "higher"},
	{"correlate.ms", "ms", "lower"},
	{"probe.ms", "ms", "lower"},
	{"probe.memo_hit_ratio", "ratio", "higher"},
	{"probe.switches_classified", "count", "lower"},
	{"probe.replay_ratio", "ratio", "higher"},
	{"tcam.classify_ms", "ms", "lower"},
	{"tcam.packets_classified", "count", "lower"},
	{"stream.queue_wait_ms", "ms", "lower"},
	{"stream.batch_switches", "count", "lower"},
	{"stream.batch_max", "count", "lower"},
	{"stream.coalesced_ratio", "ratio", "higher"},
	{"stream.generator_lag_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"store.base_loads", "count", "higher"},
	{"scout.replay_ratio", "ratio", "higher"},
	{"scout.over_cap", "count", "lower"},
	{"scout.unattributed_ms", "ms", "lower"},
	{"go.cpu_ms", "ms", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}
