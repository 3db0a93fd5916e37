//! `plane-stream`: many attached sessions streaming through one attach
//! plane.
//!
//! Set-up launches 64 containers, attaches a session to each on one
//! shared plane and forwards a socket per session to a single host
//! service. One op is a round: every in-container client sends a seeded
//! 16 KiB request, the plane forwards it, the host reads and echoes it,
//! the plane forwards the echo back and each client verifies its reply.

use crate::harness::{common_layers, timed_loop, Config, Oracle, Outcome, Step};
use crate::probe::attach_probes;
use crate::rng::{Digest, Rng};
use crate::sock::{recv_exact, send_all};
use crate::trace::Tracer;
use crate::world::{app_conf, app_image, boot, tool_bytes, APP_IMAGE};
use cntr_core::{AttachSession, Cntr, CntrOptions, EventLoop};
use cntr_engine::{ContainerRuntime, Registry};
use cntr_kernel::{Kernel, KernelConfig};
use cntr_types::{Pid, SysResult};
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 64;
const SMOKE_SESSIONS: usize = 4;
const REQUEST: usize = 16 << 10;
/// Seeded bytes requests are cut from.
const POOL: usize = 1 << 20;
const SETUPS: usize = 15;
const SVC: &str = "/run/svc.sock";
const NESTED_SOCK: &str = "/var/lib/cntr/tmp/app.sock";
const APP_SOCK: &str = "/tmp/app.sock";

/// One session's forwarded connection: the in-container client end and
/// the host service's accepted end.
struct Lane {
    app: Pid,
    client: u32,
    conn: u32,
}

struct Fleet {
    k: Kernel,
    runtimes: Vec<ContainerRuntime>,
    cntr: Cntr,
    plane: Arc<EventLoop>,
    sessions: Vec<AttachSession>,
    lanes: Vec<Lane>,
    /// Plane endpoints once every session is up.
    endpoints: usize,
}

impl Fleet {
    /// Detaches every session and stops every container: live sessions
    /// keep the whole host alive.
    fn teardown(self) -> SysResult<()> {
        for s in self.sessions {
            s.detach()?;
        }
        for i in 0..self.lanes.len() {
            self.runtimes[i % self.runtimes.len()].stop(&format!("c{i}"))?;
        }
        Ok(())
    }
}

fn launch(tools: &[Vec<u8>], conf: &str, sessions: usize, oracle: &mut Oracle) -> Fleet {
    let k = boot(KernelConfig::default(), tools);
    let registry = Registry::new();
    registry.push(app_image(conf));
    let runtimes = ContainerRuntime::matrix(k.clone(), registry);
    let cntr = Cntr::new(k.clone());
    let plane = cntr.plane().expect("create the attach plane");
    let svc = k.bind_listener(Pid::INIT, SVC).expect("bind host service");
    let mut fleet_sessions = Vec::with_capacity(sessions);
    let mut lanes = Vec::with_capacity(sessions);
    let mut per_session = 0;
    for i in 0..sessions {
        let rt = &runtimes[i % runtimes.len()];
        let c = rt.run(&format!("c{i}"), APP_IMAGE).expect("run container");
        let before = plane.endpoints();
        let s = cntr
            .attach(c.pid, CntrOptions::default())
            .expect("attach session");
        s.forward_socket(NESTED_SOCK, SVC).expect("forward socket");
        let client = k.connect(c.pid, APP_SOCK).expect("connect in container");
        plane.pump_until_quiet().expect("pump plane");
        let conn = k.accept(Pid::INIT, svc).expect("accept forwarded");
        if i == 0 {
            per_session = plane.endpoints() - before;
        }
        fleet_sessions.push(s);
        lanes.push(Lane {
            app: c.pid,
            client,
            conn,
        });
    }
    let endpoints = plane.endpoints();
    oracle.check(endpoints == sessions * per_session, || {
        format!("plane has {endpoints} endpoints for {sessions} sessions of {per_session}")
    });
    Fleet {
        k,
        runtimes,
        cntr,
        plane,
        sessions: fleet_sessions,
        lanes,
        endpoints,
    }
}

/// One round. Syscall errors return `Err`; wrong content goes to `oracle`.
fn round(
    f: &Fleet,
    offsets: &[usize],
    pool: &[u8],
    bufs: &mut [Vec<u8>],
    parked_max: &mut i64,
    tr: &mut Tracer,
    oracle: &mut Oracle,
) -> SysResult<u64> {
    let (k, plane) = (&f.k, f.plane.as_ref());
    let request = |lane: usize| &pool[offsets[lane]..offsets[lane] + REQUEST];
    let mut sample_parked = || {
        let parked = obs::gauge_value("core.proxy.parked-directions").unwrap_or(0);
        *parked_max = (*parked_max).max(parked);
    };

    let g = tr.open("plane.writes");
    for (i, lane) in f.lanes.iter().enumerate() {
        send_all(k, lane.app, lane.client, request(i), plane, tr)?;
    }
    tr.close(g);
    tr.span("core.plane.pump", || plane.pump_until_quiet())?;
    sample_parked();

    let g = tr.open("plane.echo");
    for (i, lane) in f.lanes.iter().enumerate() {
        recv_exact(k, Pid::INIT, lane.conn, &mut bufs[i], plane, tr)?;
        oracle.check(bufs[i] == request(i), || {
            format!("lane {i}: request corrupted")
        });
        send_all(k, Pid::INIT, lane.conn, &bufs[i], plane, tr)?;
    }
    tr.close(g);
    tr.span("core.plane.pump", || plane.pump_until_quiet())?;
    sample_parked();

    let g = tr.open("plane.reads");
    for (i, lane) in f.lanes.iter().enumerate() {
        bufs[i].fill(0);
        recv_exact(k, lane.app, lane.client, &mut bufs[i], plane, tr)?;
        oracle.check(bufs[i] == request(i), || {
            format!("lane {i}: reply corrupted")
        });
    }
    tr.close(g);
    Ok(2 * (REQUEST * f.lanes.len()) as u64)
}

pub fn run(cfg: &Config) -> Outcome {
    let sessions = if cfg.smoke { SMOKE_SESSIONS } else { SESSIONS };
    let mut rng = Rng::new(cfg.seed);
    let mut digest = Digest::new();
    let tools = tool_bytes(&mut rng, &mut digest);
    let conf = app_conf(&mut rng, &mut digest);
    let pool = rng.bytes(POOL + REQUEST);
    digest.add(&pool);
    let mut inputs = rng.fork(1);

    let mut out = Outcome::default();
    let mut fleet = None;
    for _ in 0..SETUPS {
        if let Some(old) = fleet.take() {
            Fleet::teardown(old).expect("tear down a set-up");
        }
        let t = Instant::now();
        fleet = Some(launch(&tools, &conf, sessions, &mut out.oracle));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let f = fleet.expect("at least one set-up");

    let mut tr = Tracer::new();
    let mut bufs = vec![vec![0u8; REQUEST]; sessions];
    let mut offsets = vec![0usize; sessions];
    let mut parked_max = 0i64;
    let oracle = &mut out.oracle;
    let attaches = &mut out.attach;
    let probe = || attach_probes(&f.cntr, f.lanes[0].app, cfg, attaches);
    let m = timed_loop(
        cfg,
        f.k.clock(),
        &mut tr,
        &mut out.op_lat,
        "op.round",
        probe,
        |tr, _| {
            for o in offsets.iter_mut() {
                *o = inputs.range(0, POOL);
            }
            match round(&f, &offsets, &pool, &mut bufs, &mut parked_max, tr, oracle) {
                Ok(bytes) => Step::Done(bytes),
                Err(_) => Step::Failed,
            }
        },
    );
    out.windows = m.windows;
    out.sim_ns = m.sim_ns;
    let delta = m.delta;

    let endpoints = f.plane.endpoints();
    out.oracle.check(endpoints == f.endpoints, || {
        format!("plane endpoints {} -> {endpoints}", f.endpoints)
    });
    let torn_down = f.teardown();
    out.oracle
        .check(torn_down.is_ok(), || format!("teardown: {torn_down:?}"));
    out.digest = digest.value();

    let ops = out.windows.ops;
    let payload = ops * (REQUEST * sessions) as u64;
    let l = &mut out.layers;
    common_layers(l, &delta, &tr, ops, 0);
    l.insert("core.proxy.parked_directions", parked_max as f64);
    l.insert("core.proxy.payload_bytes", payload as f64);
    l.insert(
        "core.proxy.bytes_per_payload_byte",
        delta.get("core.proxy.forwarded-bytes") as f64 / payload.max(1) as f64,
    );
    out.tracer = tr;
    out
}
