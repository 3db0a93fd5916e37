//! `attach-churn`: the full container lifecycle with an attach in the
//! middle, one closed-loop cycle after another.
//!
//! One cycle runs a slim container (rotating through the four engines),
//! attaches, forwards a socket and does one request/reply through it, runs
//! `ls`, `cat` and `gdb` in the attached shell, detaches and stops the
//! container. Cycles run in epochs of a fixed length, each on a freshly
//! booted host: teardown leaves state behind, so a cycle's cost depends on
//! how many cycles came before it, and a fixed epoch keeps that the same
//! from run to run. The leftover state itself is reported, not hidden:
//! resident page-cache growth per cycle and the growth of stop and detach
//! times from the first to the last tenth of an epoch.

use crate::counters::{Delta, Snapshot};
use crate::harness::{common_layers, Config, Oracle, Outcome, WARMUP_SHARE};
use crate::rng::{Digest, Rng};
use crate::sock::{recv_exact, send_all};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::world::{app_conf, app_image, boot, tool_bytes, APP_IMAGE, APP_NAME};
use cntr_core::{Cntr, CntrOptions, EventLoop};
use cntr_engine::{ContainerRuntime, Registry};
use cntr_kernel::{Kernel, KernelConfig};
use cntr_types::{Pid, SysResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPOCH_CYCLES: usize = 400;
const SMOKE_EPOCH_CYCLES: usize = 12;
const SVC: &str = "/run/svc.sock";
/// Where the forwarded socket is bound, seen from the attached shell...
const NESTED_SOCK: &str = "/var/lib/cntr/tmp/app.sock";
/// ...and from inside the application container.
const APP_SOCK: &str = "/tmp/app.sock";

/// One freshly booted host with the engine matrix and the attach tool.
struct Host {
    k: Kernel,
    runtimes: Vec<ContainerRuntime>,
    cntr: Cntr,
    plane: Arc<EventLoop>,
    svc: u32,
    /// Expected `ls /var/lib/cntr/etc` output per engine, read natively
    /// from the first container of each engine.
    expected_ls: Vec<Option<String>>,
}

impl Host {
    fn boot(tools: &[Vec<u8>], conf: &str) -> Host {
        let k = boot(KernelConfig::default(), tools);
        let registry = Registry::new();
        registry.push(app_image(conf));
        let runtimes = ContainerRuntime::matrix(k.clone(), registry);
        let cntr = Cntr::new(k.clone());
        let plane = cntr.plane().expect("create the attach plane");
        let svc = k.bind_listener(Pid::INIT, SVC).expect("bind host service");
        let expected_ls = vec![None; runtimes.len()];
        Host {
            k,
            runtimes,
            cntr,
            plane,
            svc,
            expected_ls,
        }
    }

    /// What must stay constant across a whole epoch of cycles.
    fn census(&self) -> (usize, usize, usize) {
        (
            self.k.pids().len(),
            self.k.mount_ns_count(),
            self.k.ns_ref_entries(),
        )
    }
}

struct CycleOut {
    verified: u64,
    attach_ns: u64,
    stop_ns: u64,
    detach_ns: u64,
}

/// One cycle. Syscall errors return `Err`; wrong content goes to `oracle`.
fn cycle(
    h: &mut Host,
    i: usize,
    conf: &str,
    request: &[u8],
    tr: &mut Tracer,
    oracle: &mut Oracle,
) -> SysResult<CycleOut> {
    let engine = i % h.runtimes.len();
    let name = format!("c{i}");
    let (k, plane) = (h.k.clone(), Arc::clone(&h.plane));
    let rt = &h.runtimes[engine];
    let c = tr.span("engine.run", || rt.run(&name, APP_IMAGE))?;
    if h.expected_ls[engine].is_none() {
        let mut names: Vec<String> = k
            .readdir(c.pid, "/etc")?
            .into_iter()
            .map(|d| d.name)
            .filter(|n| n != "." && n != "..")
            .collect();
        names.sort();
        h.expected_ls[engine] = Some(format!("{}\n", names.join(" ")));
    }
    let t = Instant::now();
    let attached = tr.span("core.attach", || {
        h.cntr.attach(c.pid, CntrOptions::default())
    });
    let attach_ns = t.elapsed().as_nanos() as u64;
    let session = match attached {
        Ok(s) => s,
        Err(e) => {
            let _ = rt.stop(&name);
            return Err(e);
        }
    };

    let mut verified = 0u64;
    let mut work = |tr: &mut Tracer, oracle: &mut Oracle| -> SysResult<()> {
        // Socket forwarding: one request/reply through the proxy.
        let g = tr.open("cycle.socket");
        tr.span("core.forward_socket", || {
            session.forward_socket(NESTED_SOCK, SVC)
        })?;
        let client = tr.span("kernel.connect", || k.connect(c.pid, APP_SOCK))?;
        tr.span("core.plane.pump", || plane.pump_until_quiet())?;
        let conn = tr.span("kernel.accept", || k.accept(Pid::INIT, h.svc))?;
        let mut buf = vec![0u8; request.len()];
        send_all(&k, c.pid, client, request, &plane, tr)?;
        tr.span("core.plane.pump", || plane.pump_until_quiet())?;
        recv_exact(&k, Pid::INIT, conn, &mut buf, &plane, tr)?;
        oracle.check(buf == request, || format!("cycle {i}: request corrupted"));
        send_all(&k, Pid::INIT, conn, &buf, &plane, tr)?;
        tr.span("core.plane.pump", || plane.pump_until_quiet())?;
        buf.fill(0);
        recv_exact(&k, c.pid, client, &mut buf, &plane, tr)?;
        oracle.check(buf == request, || format!("cycle {i}: reply corrupted"));
        verified += 2 * buf.len() as u64;
        tr.span("kernel.close", || k.close(c.pid, client))?;
        tr.span("kernel.close", || k.close(Pid::INIT, conn))?;
        tr.close(g);

        // Debugging commands in the attached shell.
        let ls = tr.span("core.shell_run", || session.run("ls /var/lib/cntr/etc"));
        let want = h.expected_ls[engine].as_deref().unwrap_or_default();
        oracle.check(ls == want, || {
            format!("cycle {i}: ls gave {ls:?}, want {want:?}")
        });
        let cat = tr.span("core.shell_run", || {
            session.run("cat /var/lib/cntr/etc/app.conf")
        });
        oracle.check(cat == conf, || format!("cycle {i}: cat gave {cat:?}"));
        let gdb = tr.span("core.shell_run", || {
            session.run(&format!("gdb -p {}", c.pid))
        });
        let attaching = format!("Attaching to process {} ({APP_NAME})... done", c.pid);
        oracle.check(gdb.contains(&attaching), || {
            format!("cycle {i}: gdb gave {gdb:?}")
        });
        verified += (ls.len() + cat.len() + gdb.len()) as u64;
        Ok(())
    };
    let worked = work(tr, oracle);

    let t = Instant::now();
    let detached = tr.span("core.detach", || session.detach());
    let detach_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let stopped = tr.span("engine.stop", || rt.stop(&name));
    let stop_ns = t.elapsed().as_nanos() as u64;
    worked?;
    detached?;
    stopped?;
    Ok(CycleOut {
        verified,
        attach_ns,
        stop_ns,
        detach_ns,
    })
}

/// Mean of the last tenth of `v` over the mean of its first tenth.
fn growth(v: &[u64]) -> f64 {
    let tenth = (v.len() / 10).max(1);
    let as_f = |s: &[u64]| s.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let first = mean(&as_f(&v[..tenth]));
    let last = mean(&as_f(&v[v.len() - tenth..]));
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let epoch_cycles = if cfg.smoke {
        SMOKE_EPOCH_CYCLES
    } else {
        EPOCH_CYCLES
    };
    let mut rng = Rng::new(cfg.seed);
    let mut digest = Digest::new();
    let tools = tool_bytes(&mut rng, &mut digest);
    let conf = app_conf(&mut rng, &mut digest);
    let mut inputs = rng.fork(1);

    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut delta = Delta::default();
    let (mut stop_growth, mut detach_growth, mut resident_growth) = (vec![], vec![], vec![]);
    let warm_end = Instant::now() + Duration::from_secs_f64(cfg.seconds * WARMUP_SHARE);
    let deadline = warm_end + Duration::from_secs_f64(cfg.seconds);
    let mut cycle_no = 0usize;
    let mut epochs = 0usize;
    // Epochs that start during the warm-up are checked but not recorded.
    // At least two measured epochs, so a traced run has both a traced and
    // an untraced one.
    loop {
        let now = Instant::now();
        let measured = now >= warm_end;
        if measured && epochs >= 2 && now >= deadline {
            break;
        }
        let traced = cfg.trace && measured && epochs % 2 == 1;
        let t = Instant::now();
        let mut h = Host::boot(&tools, &conf);
        let setup_s = t.elapsed().as_secs_f64();
        let census = h.census();
        let resident = h.k.page_cache_resident_pages() as f64;
        let sim = h.k.clock().now();
        let (mut stops, mut detaches, mut cycles, mut attaches) = (vec![], vec![], vec![], vec![]);
        let (mut verified, mut failed) = (0u64, 0u64);
        tr.set_on(traced);
        let before = Snapshot::take();
        let start = Instant::now();
        for _ in 0..epoch_cycles {
            let len = inputs.range(64, 513);
            let request = inputs.bytes(len);
            let t0 = Instant::now();
            let span = tr.begin_op("op.cycle", cycle_no as u64);
            let res = cycle(&mut h, cycle_no, &conf, &request, &mut tr, &mut out.oracle);
            tr.end_op(span);
            let cycle_ns = t0.elapsed().as_nanos() as u64;
            cycle_no += 1;
            match res {
                Ok(c) => {
                    verified += c.verified;
                    stops.push(c.stop_ns);
                    detaches.push(c.detach_ns);
                    cycles.push(cycle_ns);
                    attaches.push(c.attach_ns);
                }
                Err(_) => failed += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let epoch_delta = Snapshot::take().since(&before);
        tr.set_on(false);
        let sim_ns = (h.k.clock().now() - sim).as_nanos();
        let after = h.census();
        out.oracle.check(after == census, || {
            format!("epoch {epochs}: (pids, mount namespaces, ns refs) {census:?} -> {after:?}")
        });
        if !measured {
            continue;
        }
        epochs += 1;
        out.setup_s.push(setup_s);
        delta.add(&epoch_delta);
        out.sim_ns += sim_ns;
        out.windows.failed += failed;
        out.windows
            .push(traced, epoch_cycles as u64, verified, secs);
        resident_growth
            .push((h.k.page_cache_resident_pages() as f64 - resident) / epoch_cycles as f64);
        if traced || !cfg.trace {
            stop_growth.push(growth(&stops));
            detach_growth.push(growth(&detaches));
        }
        if !traced {
            cycles.into_iter().for_each(|ns| out.op_lat.push(ns));
            attaches.into_iter().for_each(|ns| out.attach.lat.push(ns));
            out.op_lat.end_segment();
            out.attach.lat.end_segment();
        }
    }
    out.digest = digest.value();

    let l = &mut out.layers;
    common_layers(l, &delta, &tr, out.windows.ops, 0);
    l.insert("engine.stop_growth", median(&stop_growth));
    l.insert("core.detach_growth", median(&detach_growth));
    l.insert(
        "pagecache.resident_growth_per_cycle",
        median(&resident_growth),
    );
    l.insert("epochs", epochs as f64);
    out.tracer = tr;
    out
}
