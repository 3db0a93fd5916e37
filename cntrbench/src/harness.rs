//! What every workload shares: its configuration, the closed measurement
//! loop, the correctness oracle and the outcome it reports.

use crate::counters::{Delta, Snapshot};
use crate::stats::Latencies;
use crate::trace::Tracer;
use cntr_types::SimClock;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    AttachChurn,
    PlaneStream,
    ToolsRead,
    WritebackSpill,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AttachChurn,
        Workload::PlaneStream,
        Workload::ToolsRead,
        Workload::WritebackSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AttachChurn => "attach-churn",
            Workload::PlaneStream => "plane-stream",
            Workload::ToolsRead => "tools-read",
            Workload::WritebackSpill => "writeback-spill",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub smoke: bool,
}

/// Windows the measured phase is cut into. Rates are read at the fast end
/// over windows (see `stats::FAST_SHARE`), so windows are short: a run
/// needs some that fall wholly into the fast state of a shared machine. In
/// a traced run, odd windows are traced and even ones are not, so the mean
/// rates of the two give the tracing overhead.
pub const WINDOWS: usize = 200;

/// Per-layer metric values a workload measured, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Wrong output: any failed check makes the run incorrect.
#[derive(Default)]
pub struct Oracle {
    failures: u64,
    first: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.first.len() < 8 {
                self.first.push(what());
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    pub fn report(&self) -> String {
        format!("{} failed checks: {}", self.failures, self.first.join("; "))
    }
}

/// Ops and verified bytes per window of the measured phase.
#[derive(Default)]
pub struct Windows {
    /// Ops per second of each untraced window.
    pub untraced: Vec<f64>,
    /// Ops per second of each traced window.
    pub traced: Vec<f64>,
    /// Verified MiB per second of each untraced window.
    pub mib: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

impl Windows {
    pub fn push(&mut self, traced: bool, ops: u64, bytes: u64, secs: f64) {
        self.ops += ops;
        if traced {
            self.traced.push(ops as f64 / secs);
        } else {
            self.untraced.push(ops as f64 / secs);
            self.mib.push(bytes as f64 / (1 << 20) as f64 / secs);
        }
    }
}

/// Result of one op: the payload bytes it verified, or a syscall failure.
pub enum Step {
    Done(u64),
    Failed,
}

/// `Cntr::attach` latencies, and the attaches made only to measure them.
#[derive(Default)]
pub struct Attaches {
    pub lat: Latencies,
    pub probes: u64,
    pub probe_failed: u64,
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attach: Attaches,
    pub oracle: Oracle,
    /// Digest of every generated input.
    pub digest: u64,
    pub setup_s: Vec<f64>,
    pub op_lat: Latencies,
    pub windows: Windows,
    /// Virtual (`SimClock`) time spent in the measured phase.
    pub sim_ns: u64,
    pub layers: Layers,
    /// The spans recorded in traced windows.
    pub tracer: Tracer,
}

/// Share of `--seconds` spent warming up before measuring: caches fill and
/// background write-back reaches its steady state.
pub const WARMUP_SHARE: f64 = 0.1;

/// What the measured phase of [`timed_loop`] saw.
pub struct Measured {
    pub windows: Windows,
    /// Counter growth over the measured phase only.
    pub delta: Delta,
    /// Virtual time the measured phase took.
    pub sim_ns: u64,
}

/// Runs `op` back to back (one closed-loop client): first a warm-up of
/// `WARMUP_SHARE × cfg.seconds`, then the measured phase of `cfg.seconds`,
/// timing each op from outside. `root` names each op's root span; `op`
/// is told whether it is in the measured phase. `between` runs before
/// each window, outside the window's timing and counter deltas.
pub fn timed_loop(
    cfg: &Config,
    clock: &SimClock,
    tracer: &mut Tracer,
    lat: &mut Latencies,
    root: &'static str,
    mut between: impl FnMut(),
    mut op: impl FnMut(&mut Tracer, bool) -> Step,
) -> Measured {
    let warm_end = Instant::now() + Duration::from_secs_f64(cfg.seconds * WARMUP_SHARE);
    while Instant::now() < warm_end {
        op(tracer, false);
    }
    let window = Duration::from_secs_f64(cfg.seconds / WINDOWS as f64);
    let mut w = Windows::default();
    let mut req = 0u64;
    let mut delta = Delta::default();
    let mut sim_ns = 0;
    for i in 0..WINDOWS {
        between();
        let traced = cfg.trace && i % 2 == 1;
        tracer.set_on(traced);
        let sim = clock.now();
        let before = Snapshot::take();
        let start = Instant::now();
        let (mut ops, mut bytes) = (0u64, 0u64);
        loop {
            let t0 = Instant::now();
            let span = tracer.begin_op(root, req);
            let step = op(tracer, true);
            tracer.end_op(span);
            let t1 = Instant::now();
            req += 1;
            ops += 1;
            match step {
                Step::Done(b) => {
                    bytes += b;
                    if !traced {
                        lat.push((t1 - t0).as_nanos() as u64);
                    }
                }
                Step::Failed => w.failed += 1,
            }
            if t1 - start >= window {
                break;
            }
        }
        w.push(traced, ops, bytes, start.elapsed().as_secs_f64());
        lat.end_segment();
        delta.add(&Snapshot::take().since(&before));
        sim_ns += (clock.now() - sim).as_nanos();
    }
    tracer.set_on(false);
    Measured {
        windows: w,
        delta,
        sim_ns,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics every workload reports the same way: counter deltas
/// over the measured phase (`ops` ops, `user_bytes_written` bytes
/// acknowledged to `pwrite`) and mean span self times.
pub fn common_layers(
    layers: &mut Layers,
    d: &Delta,
    t: &Tracer,
    ops: u64,
    user_bytes_written: u64,
) {
    for (metric, span) in [
        ("engine.run_us", "engine.run"),
        ("engine.stop_us", "engine.stop"),
        ("core.attach_us", "core.attach"),
        ("core.detach_us", "core.detach"),
        ("core.shell_run_us", "core.shell_run"),
        ("core.plane.pump_us", "core.plane.pump"),
        ("kernel.open_us", "kernel.open"),
        ("kernel.stat_us", "kernel.stat"),
        ("kernel.pread_us", "kernel.pread"),
        ("kernel.pwrite_us", "kernel.pwrite"),
        ("kernel.fsync_us", "kernel.fsync"),
        ("kernel.close_us", "kernel.close"),
        ("kernel.socket_rw_us", "kernel.socket_rw"),
    ] {
        layers.insert(metric, t.agg(span).self_us());
    }

    let copy_ups = d.get("overlay.copy-up.count");
    let dcache_hits = d.get("overlay.dcache.hits") + d.get("overlay.dcache.negative-hits");
    let dcache_lookups = dcache_hits + d.get("overlay.dcache.misses");
    layers.insert("overlay.copy_up_per_cycle", ratio(copy_ups, ops));
    layers.insert(
        "overlay.dcache_hit_ratio",
        ratio(dcache_hits, dcache_lookups),
    );
    layers.insert("overlay.dcache_lookups", dcache_lookups as f64);

    let polls = d.get("core.attach.loop-polls");
    layers.insert("core.plane.polls", polls as f64);
    layers.insert("core.plane.polls_per_round", ratio(polls, ops));
    layers.insert(
        "core.proxy.dial_errors",
        d.get("core.proxy.dial-errors") as f64,
    );

    let lookups = d.get("pagecache.lookups");
    layers.insert("pagecache.lookups", lookups as f64);
    layers.insert(
        "pagecache.hit_ratio",
        ratio(d.get("pagecache.hits"), lookups),
    );
    for (metric, counter) in [
        ("pagecache.evictions_per_op", "pagecache.evictions"),
        ("pagecache.flushed_pages_per_op", "pagecache.flushed-pages"),
        ("pagecache.reclaim_scans_per_op", "pagecache.reclaim-scans"),
    ] {
        layers.insert(metric, ratio(d.get(counter), ops));
    }
    layers.insert(
        "pagecache.writeback_wakeups",
        d.get("pagecache.writeback-wakeups") as f64,
    );
    layers.insert(
        "pagecache.throttle_stalls",
        d.get("pagecache.throttle-stalls") as f64,
    );
    layers.insert(
        "pagecache.throttle_stall_ms",
        d.get("pagecache.throttle-stall-ns.sum") as f64 / 1e6,
    );

    let requests = d.get("fuse.req.started");
    layers.insert("fuse.requests", requests as f64);
    layers.insert("fuse.requests_per_op", ratio(requests, ops));
    for (metric, op) in [
        ("fuse.op.lookup.per_op", "lookup"),
        ("fuse.op.getattr.per_op", "getattr"),
        ("fuse.op.open.per_op", "open"),
        ("fuse.op.read.per_op", "read"),
        ("fuse.op.write.per_op", "write"),
        ("fuse.op.flush.per_op", "flush"),
        ("fuse.op.release.per_op", "release"),
        ("fuse.op.fsync.per_op", "fsync"),
    ] {
        layers.insert(metric, ratio(d.fuse_op_count(op), ops));
    }
    layers.insert("fuse.busy_us_per_op", ratio(d.fuse_busy_ns(), ops) / 1e3);

    layers.insert(
        "blockdev.write_amplification",
        ratio(d.get("blockdev.bytes-written"), user_bytes_written),
    );
    layers.insert("blockdev.user_bytes_written", user_bytes_written as f64);
    layers.insert("blockdev.reads_per_op", ratio(d.get("blockdev.reads"), ops));
    layers.insert("blockdev.flushes", d.get("blockdev.flushes") as f64);
}
