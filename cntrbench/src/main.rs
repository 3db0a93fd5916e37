//! `cntrbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cntrbench --workload <attach-churn|plane-stream|tools-read|writeback-spill>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload in this process (the `obs` registry is process-global,
//! so workloads never share one), checks every output against its oracle,
//! and prints one JSON result object as the last line of stdout: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics. Exits 1 when an oracle check failed, 2 on bad arguments. See
//! README.md for the workloads and metrics.

mod churn;
mod counters;
mod files;
mod harness;
mod plane;
mod probe;
mod report;
mod rng;
mod sock;
mod stats;
mod trace;
mod world;

use harness::{Config, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: cntrbench --workload <attach-churn|plane-stream|tools-read|writeback-spill> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("cntrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match cfg.workload {
        Workload::AttachChurn => churn::run(&cfg),
        Workload::PlaneStream => plane::run(&cfg),
        Workload::ToolsRead => files::run(&cfg, &files::TOOLS_READ),
        Workload::WritebackSpill => files::run(&cfg, &files::WRITEBACK_SPILL),
    };
    let values = report::metrics(&cfg, &mut out);
    if cfg.trace {
        let path = std::path::PathBuf::from(format!(".bench_trace/{}.json", cfg.workload.name()));
        match out.tracer.write_chrome(&path) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("cntrbench: writing {}: {e}", path.display()),
        }
    }
    let correct = out.oracle.passed();
    if !correct {
        eprintln!("cntrbench: oracle: {}", out.oracle.report());
    }
    let attempted = out.windows.ops + out.attach.probes;
    let failed = out.windows.failed + out.attach.probe_failed;
    println!(
        "{}",
        report::result_line(&cfg, correct, attempted, failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
