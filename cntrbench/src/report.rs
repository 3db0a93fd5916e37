//! The metrics a run reports, with their units, and the result line.

use crate::harness::{Config, Outcome};
use crate::stats::{fast_rate, mean, median, Summary};
use crate::world::{peak_rss_mib, proc_status};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("mib_per_s", "MiB/s"),
    ("attach_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`). A metric of
/// a layer the workload does not exercise reads 0. The first four are end
/// to end but not bounded: virtual time is deterministic, so on some
/// workloads it reads the same on every run, and the tails move with
/// stalls of a shared machine more than any bound allows.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim_us_per_op", "us"),
    ("op_p99_us", "us"),
    ("attach_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("ops", "count"),
    ("ops_per_s_untraced", "1/s"),
    ("ops_per_s_traced", "1/s"),
    ("tracing_overhead", "ratio"),
    ("trace.spans", "count"),
    ("trace.bench_self_share", "ratio"),
    ("epochs", "count"),
    ("engine.run_us", "us"),
    ("engine.stop_us", "us"),
    ("engine.stop_growth", "ratio"),
    ("overlay.copy_up_per_cycle", "count"),
    ("overlay.dcache_hit_ratio", "ratio"),
    ("overlay.dcache_lookups", "count"),
    ("core.attach_us", "us"),
    ("core.detach_us", "us"),
    ("core.detach_growth", "ratio"),
    ("core.shell_run_us", "us"),
    ("core.plane.pump_us", "us"),
    ("core.plane.polls", "count"),
    ("core.plane.polls_per_round", "count"),
    ("core.proxy.parked_directions", "count"),
    ("core.proxy.bytes_per_payload_byte", "ratio"),
    ("core.proxy.payload_bytes", "bytes"),
    ("core.proxy.dial_errors", "count"),
    ("kernel.open_us", "us"),
    ("kernel.stat_us", "us"),
    ("kernel.pread_us", "us"),
    ("kernel.pwrite_us", "us"),
    ("kernel.fsync_us", "us"),
    ("kernel.close_us", "us"),
    ("kernel.socket_rw_us", "us"),
    ("pagecache.hit_ratio", "ratio"),
    ("pagecache.lookups", "count"),
    ("pagecache.evictions_per_op", "count"),
    ("pagecache.flushed_pages_per_op", "count"),
    ("pagecache.reclaim_scans_per_op", "count"),
    ("pagecache.writeback_wakeups", "count"),
    ("pagecache.throttle_stalls", "count"),
    ("pagecache.throttle_stall_ms", "ms"),
    ("pagecache.resident_growth_per_cycle", "pages"),
    ("fuse.requests", "count"),
    ("fuse.requests_per_op", "count"),
    ("fuse.op.lookup.per_op", "count"),
    ("fuse.op.getattr.per_op", "count"),
    ("fuse.op.open.per_op", "count"),
    ("fuse.op.read.per_op", "count"),
    ("fuse.op.write.per_op", "count"),
    ("fuse.op.flush.per_op", "count"),
    ("fuse.op.release.per_op", "count"),
    ("fuse.op.fsync.per_op", "count"),
    ("fuse.busy_us_per_op", "us"),
    ("blockdev.write_amplification", "ratio"),
    ("blockdev.user_bytes_written", "bytes"),
    ("blockdev.reads_per_op", "count"),
    ("blockdev.flushes", "count"),
];

fn percentile_label(s: &Summary) -> String {
    format!(
        "p{:.1}, median over {} groups; {} samples",
        s.tail_q * 100.0,
        s.groups,
        s.n
    )
}

/// Builds the metric values for `cfg`'s mode, printing a readable summary
/// (with sample counts) to stdout along the way.
pub fn metrics(cfg: &Config, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ops = out.windows.ops;
    let op = out.op_lat.summary();
    let attach = out.attach.lat.summary();
    println!(
        "{}: {} ops, {} attach probes, inputs digest {:016x}, {} threads at exit",
        cfg.workload.name(),
        ops,
        out.attach.probes,
        out.digest,
        proc_status("Threads:").unwrap_or(0.0)
    );
    println!(
        "op latency: p50 {:.1} us, tail {:.1} us ({})",
        op.p50 / 1e3,
        op.tail as f64 / 1e3,
        percentile_label(&op)
    );
    println!(
        "attach latency: p50 {:.3} ms, tail {:.3} ms ({})",
        attach.p50 / 1e6,
        attach.tail as f64 / 1e6,
        percentile_label(&attach)
    );
    if !cfg.trace {
        m.insert("setup_s", median(&out.setup_s));
        m.insert("ops_per_s", fast_rate(&out.windows.untraced));
        m.insert("op_p50_us", op.p50 / 1e3);
        m.insert("mib_per_s", fast_rate(&out.windows.mib));
        m.insert("attach_p50_ms", attach.p50 / 1e6);
        m.insert("peak_rss_mib", peak_rss_mib());
        return m;
    }
    let untraced = mean(&out.windows.untraced);
    let traced = mean(&out.windows.traced);
    let overhead = if untraced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    };
    m.extend(out.layers.iter().map(|(k, v)| (*k, *v)));
    m.insert("ops", ops as f64);
    m.insert("sim_us_per_op", out.sim_ns as f64 / ops.max(1) as f64 / 1e3);
    m.insert("op_p99_us", op.tail as f64 / 1e3);
    m.insert("attach_p99_ms", attach.tail as f64 / 1e6);
    m.insert("error_rate", out.windows.failed as f64 / ops.max(1) as f64);
    m.insert("ops_per_s_untraced", untraced);
    m.insert("ops_per_s_traced", traced);
    m.insert("tracing_overhead", overhead);
    let t = &out.tracer;
    let roots = t.agg_prefix("op.");
    m.insert("trace.spans", t.spans_recorded() as f64);
    m.insert(
        "trace.bench_self_share",
        roots.self_ns as f64 / roots.total_ns.max(1) as f64,
    );
    println!(
        "tracing overhead: {:.1}% ({:.0} ops/s untraced, {:.0} traced; {} ops traced)",
        100.0 * overhead,
        untraced,
        traced,
        t.ops_traced()
    );
    m
}

/// The result object: the last line of stdout.
pub fn result_line(
    cfg: &Config,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let list = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
