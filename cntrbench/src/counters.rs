//! Deltas of the program's own `obs` counters and histograms over the
//! measured phase. The registry is process-global, so each workload runs
//! in its own process and snapshots are taken immediately around the
//! measured phase: set-up traffic never enters a per-op ratio.

use std::collections::BTreeMap;

/// Every FUSE opcode name (`fuse.op.<name>.*` families).
const FUSE_OPS: &[&str] = &[
    "lookup",
    "forget",
    "getattr",
    "setattr",
    "readlink",
    "symlink",
    "mknod",
    "mkdir",
    "unlink",
    "rmdir",
    "rename",
    "link",
    "open",
    "read",
    "write",
    "statfs",
    "release",
    "fsync",
    "setxattr",
    "getxattr",
    "listxattr",
    "removexattr",
    "flush",
    "init",
    "readdir",
    "access",
    "create",
    "destroy",
    "batch-forget",
    "fallocate",
];

const COUNTERS: &[&str] = &[
    "pagecache.lookups",
    "pagecache.hits",
    "pagecache.misses",
    "pagecache.evictions",
    "pagecache.flushed-pages",
    "pagecache.reclaim-scans",
    "pagecache.writeback-wakeups",
    "pagecache.throttle-stalls",
    "fuse.req.started",
    "blockdev.reads",
    "blockdev.writes",
    "blockdev.bytes-written",
    "blockdev.flushes",
    "overlay.copy-up.count",
    "overlay.dcache.hits",
    "overlay.dcache.misses",
    "overlay.dcache.negative-hits",
    "core.attach.loop-polls",
    "core.proxy.forwarded-bytes",
    "core.proxy.dial-errors",
];

const HISTOGRAMS: &[&str] = &["pagecache.throttle-stall-ns"];

/// Counter values plus histogram `(count, sum)` pairs at one instant.
pub struct Snapshot(BTreeMap<String, u64>);

impl Snapshot {
    pub fn take() -> Snapshot {
        let mut m = BTreeMap::new();
        for &name in COUNTERS {
            m.insert(name.to_string(), obs::counter_value(name).unwrap_or(0));
        }
        let fuse_counts = FUSE_OPS.iter().map(|op| format!("fuse.op.{op}.count"));
        for name in fuse_counts {
            let v = obs::counter_value(&name).unwrap_or(0);
            m.insert(name, v);
        }
        let fuse_lat = FUSE_OPS.iter().map(|op| format!("fuse.op.{op}.latency-ns"));
        for name in HISTOGRAMS.iter().map(|s| s.to_string()).chain(fuse_lat) {
            let (count, sum) = obs::histogram(&name).map_or((0, 0), |h| (h.count(), h.sum()));
            m.insert(format!("{name}.count"), count);
            m.insert(format!("{name}.sum"), sum);
        }
        Snapshot(m)
    }

    /// `self - before`, per name.
    pub fn since(&self, before: &Snapshot) -> Delta {
        Delta(
            self.0
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(before.0.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        )
    }
}

/// Growth of each counter over an interval.
#[derive(Default)]
pub struct Delta(BTreeMap<String, u64>);

impl Delta {
    /// Adds another interval's growth (for phases measured in pieces).
    pub fn add(&mut self, other: &Delta) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} is not snapshotted"))
    }

    pub fn fuse_op_count(&self, op: &str) -> u64 {
        self.get(&format!("fuse.op.{op}.count"))
    }

    /// Sum of every `fuse.op.*.latency-ns` histogram: time requests spent
    /// in the FUSE round trip, including server and storage.
    pub fn fuse_busy_ns(&self) -> u64 {
        FUSE_OPS
            .iter()
            .map(|op| self.get(&format!("fuse.op.{op}.latency-ns.sum")))
            .sum()
    }
}
