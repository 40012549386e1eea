//! The benchmark's metric catalog: every metric it can print, with its
//! unit and the direction that counts as better. `BENCHMARK.json` at the
//! repository root registers the same names; the smoke test checks that
//! the two agree.

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`) on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("run_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("locality", "fraction", "higher"),
    m("gmtt_s", "s", "lower"),
    m("gmtt_vs_vanilla", "ratio", "lower"),
];

/// Printed by traced runs (`--trace 1`) on every workload. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("simcore.queue_s", "s", "lower"),
    m("simcore.check_s", "s", "lower"),
    m("simcore.events", "count", "lower"),
    m("simcore.peak_queue_len", "count", "lower"),
    m("sched.dispatch_s", "s", "lower"),
    m("sched.delay_skips", "count", "lower"),
    m("sched.events", "count", "lower"),
    m("net.dispatch_s", "s", "lower"),
    m("net.topology_s", "s", "lower"),
    m("net.events", "count", "lower"),
    m("net.flows_started", "count", "lower"),
    m("net.remote_gb", "GB", "lower"),
    m("dfs.ingest_s", "s", "lower"),
    m("dfs.dispatch_s", "s", "lower"),
    m("dfs.blocks", "count", "lower"),
    m("dfs.blocks_re_replicated", "count", "lower"),
    m("dfs.recovery_gb", "GB", "lower"),
    m("dfs.replicas_quarantined", "count", "higher"),
    m("core.replicas_created", "count", "lower"),
    m("core.evictions", "count", "lower"),
    m("core.skipped_by_sampling", "count", "higher"),
    m("mapred.fault_dispatch_s", "s", "lower"),
    m("mapred.tasks_retried", "count", "lower"),
    m("mapred.speculative_launches", "count", "lower"),
    m("trace.record_s", "s", "lower"),
    m("trace.to_jsonl_s", "s", "lower"),
    m("trace.from_jsonl_s", "s", "lower"),
    m("trace.jsonl_mb", "MB", "lower"),
    m("trace.records", "count", "lower"),
    m("telemetry.to_jsonl_s", "s", "lower"),
    m("telemetry.rows", "count", "lower"),
    m("xray.analyze_s", "s", "lower"),
    m("xray.tasks", "count", "higher"),
    m("chaos.sample_s", "s", "lower"),
    m("chaos.runs", "count", "higher"),
    m("chaos.steps", "count", "lower"),
    m("bench.untraced_s", "s", "lower"),
    m("bench.traced_s", "s", "lower"),
    m("bench.tracing_overhead_s", "s", "lower"),
];

/// True for metrics that must repeat exactly between two traced runs of
/// the same seed: everything that is not a host time.
pub fn is_count(def: &MetricDef) -> bool {
    def.unit != "s"
}
