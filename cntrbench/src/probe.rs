//! Attach latency outside the attach-churn loop: one extra session is
//! attached to a workload's live container and detached again, in batches
//! spread over the measured phase (between its windows, outside their
//! timing and counters), so the samples see the same machine as the ops.

use crate::harness::{Attaches, Config, WINDOWS};
use cntr_core::{Cntr, CntrOptions};
use cntr_types::Pid;
use std::time::Instant;

/// 4000 probes in all, in batches of 20: three or more groups for the tail
/// (see `stats::Latencies::summary`), about 0.1 ms each.
const PROBES_PER_WINDOW: usize = 4000 / WINDOWS;
const SMOKE_PROBES_PER_WINDOW: usize = 1;

/// One batch of probes.
pub fn attach_probes(cntr: &Cntr, target: Pid, cfg: &Config, out: &mut Attaches) {
    let n = if cfg.smoke {
        SMOKE_PROBES_PER_WINDOW
    } else {
        PROBES_PER_WINDOW
    };
    for _ in 0..n {
        let t = Instant::now();
        let session = cntr.attach(target, CntrOptions::default());
        let ns = t.elapsed().as_nanos() as u64;
        out.probes += 1;
        match session.map(|s| s.detach()) {
            Ok(Ok(())) => out.lat.push(ns),
            _ => out.probe_failed += 1,
        }
    }
    out.lat.end_segment();
}
