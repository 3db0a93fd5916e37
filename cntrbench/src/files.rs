//! `tools-read` and `writeback-spill`: file operations by an attached
//! session on a host tree served through CntrFS.
//!
//! The host mounts an ext4-like `diskfs` on a gp2 block device at `/data`
//! and fills it with seeded files. One session attaches to a slim
//! container; its shell process sees the host root, `/data` included,
//! through CntrFS. One op opens a random file, reads or writes a seeded
//! 4-16 KiB range and closes it. Every read is compared byte for byte with
//! an in-benchmark model of each file. After the run the host syncs, the
//! session detaches, caches are dropped and every file is re-read natively
//! against the model, so writes acknowledged through CntrFS must have
//! reached the disk.

use crate::harness::{common_layers, timed_loop, Config, Outcome, Step};
use crate::probe::attach_probes;
use crate::rng::{Digest, Rng};
use crate::trace::Tracer;
use crate::world::{app_conf, app_image, boot, mkdir_p, read_file, tool_bytes, write_file};
use cntr_core::{AttachSession, Cntr, CntrOptions};
use cntr_engine::{ContainerRuntime, EngineKind, Registry};
use cntr_fs::diskfs::diskfs_gp2;
use cntr_kernel::{CacheMode, Kernel, KernelConfig, MountFlags};
use cntr_types::{DevId, Mode, OpenFlags, Pid, SysResult};
use std::time::Instant;

/// Shape of one file workload.
pub struct Spec {
    files: usize,
    file_bytes: usize,
    /// Page-cache ceiling of the host.
    cache_bytes: u64,
    /// Percentage of ops that write.
    write_pct: u64,
    /// Every n-th write is followed by `fsync` (0: never).
    fsync_every: u64,
    /// Whether a read op `stat`s the file first.
    stat: bool,
    /// Read every file once through the session before measuring.
    warm: bool,
}

/// 1024 × 32 KiB = 32 MiB: fits the default 256 MiB page cache even
/// double-buffered (client and server side). 95% verified reads.
pub const TOOLS_READ: Spec = Spec {
    files: 1024,
    file_bytes: 32 << 10,
    cache_bytes: 256 << 20,
    write_pct: 5,
    fsync_every: 0,
    stat: true,
    warm: true,
};

/// 512 × 128 KiB = 64 MiB against a 16 MiB page cache. 70% writes with
/// `fsync` on one write in eight, 30% verified reads.
pub const WRITEBACK_SPILL: Spec = Spec {
    files: 512,
    file_bytes: 128 << 10,
    cache_bytes: 16 << 20,
    write_pct: 70,
    fsync_every: 8,
    stat: false,
    warm: false,
};

const SMOKE_FILES: usize = 32;
const MIN_IO: usize = 4 << 10;
const MAX_IO: usize = 16 << 10;
/// Seeded bytes writes are cut from.
const POOL: usize = 1 << 20;
const SETUPS: usize = 7;
const FILES_PER_DIR: usize = 32;
const DATA_DEV: DevId = DevId(0xDA7A);

fn path(file: usize) -> String {
    format!("/data/d{:02}/f{:04}", file / FILES_PER_DIR, file)
}

struct Bench {
    k: Kernel,
    runtime: ContainerRuntime,
    cntr: Cntr,
    app: Pid,
    session: AttachSession,
}

impl Bench {
    /// Detaches and stops the container: a live session's CntrFS mount
    /// keeps the whole host alive.
    fn teardown(self) -> SysResult<()> {
        self.session.detach()?;
        self.runtime.stop("app")
    }
}

fn launch(spec: &Spec, tools: &[Vec<u8>], conf: &str, model: &[Vec<u8>]) -> Bench {
    let config = KernelConfig {
        page_cache_limit: spec.cache_bytes,
        ..KernelConfig::default()
    };
    let k = boot(config, tools);
    let disk = diskfs_gp2(DATA_DEV, k.clock().clone());
    k.mkdir(Pid::INIT, "/data", Mode::RWXR_XR_X)
        .expect("mkdir /data");
    k.mount_fs(
        Pid::INIT,
        "/data",
        disk,
        CacheMode::native(),
        MountFlags::default(),
    )
    .expect("mount /data");
    for (i, content) in model.iter().enumerate() {
        let p = path(i);
        if i % FILES_PER_DIR == 0 {
            mkdir_p(&k, Pid::INIT, &p[..p.rfind('/').expect("nested path")]).expect("mkdir");
        }
        write_file(&k, Pid::INIT, &p, content).expect("populate /data");
    }
    k.sync().expect("sync populated tree");
    let registry = Registry::new();
    registry.push(app_image(conf));
    let runtime = ContainerRuntime::new(EngineKind::Docker, k.clone(), registry);
    let app = runtime
        .run("app", crate::world::APP_IMAGE)
        .expect("run app")
        .pid;
    let cntr = Cntr::new(k.clone());
    let session = cntr
        .attach(app, CntrOptions::default())
        .expect("attach session");
    if spec.warm {
        for i in 0..model.len() {
            read_file(&k, session.attached, &path(i)).expect("warm read");
        }
    }
    Bench {
        k,
        runtime,
        cntr,
        app,
        session,
    }
}

/// One op's inputs, drawn before it runs.
struct OpInput {
    file: usize,
    write: bool,
    fsync: bool,
    offset: usize,
    len: usize,
    /// Where the written bytes start in the pool.
    src: usize,
}

/// Reads `op`'s range into `buf`; returns the file size `stat` reported
/// (when the spec stats first) and the bytes read.
fn read_op(
    k: &Kernel,
    pid: Pid,
    spec: &Spec,
    op: &OpInput,
    buf: &mut [u8],
    tr: &mut Tracer,
) -> SysResult<(Option<u64>, usize)> {
    let p = path(op.file);
    let size = if spec.stat {
        Some(tr.span("kernel.stat", || k.stat(pid, &p))?.size)
    } else {
        None
    };
    let fd = tr.span("kernel.open", || {
        k.open(pid, &p, OpenFlags::RDONLY, Mode::RW_R__R__)
    })?;
    let mut got = 0;
    let mut res = Ok(());
    while got < op.len {
        let off = (op.offset + got) as u64;
        match tr.span("kernel.pread", || {
            k.pread(pid, fd, off, &mut buf[got..op.len])
        }) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => {
                res = Err(e);
                break;
            }
        }
    }
    let closed = tr.span("kernel.close", || k.close(pid, fd));
    res?;
    closed?;
    Ok((size, got))
}

fn write_op(k: &Kernel, pid: Pid, op: &OpInput, data: &[u8], tr: &mut Tracer) -> SysResult<()> {
    let p = path(op.file);
    let fd = tr.span("kernel.open", || {
        k.open(pid, &p, OpenFlags::WRONLY, Mode::RW_R__R__)
    })?;
    let mut done = 0;
    let mut res = Ok(());
    while done < data.len() && res.is_ok() {
        let off = (op.offset + done) as u64;
        match tr.span("kernel.pwrite", || k.pwrite(pid, fd, off, &data[done..])) {
            Ok(n) => done += n,
            Err(e) => res = Err(e),
        }
    }
    if res.is_ok() && op.fsync {
        res = tr.span("kernel.fsync", || k.fsync(pid, fd, false));
    }
    let closed = tr.span("kernel.close", || k.close(pid, fd));
    res?;
    closed
}

pub fn run(cfg: &Config, spec: &Spec) -> Outcome {
    let files = if cfg.smoke { SMOKE_FILES } else { spec.files };
    let mut rng = Rng::new(cfg.seed);
    let mut digest = Digest::new();
    let tools = tool_bytes(&mut rng, &mut digest);
    let conf = app_conf(&mut rng, &mut digest);
    let mut model: Vec<Vec<u8>> = (0..files).map(|_| rng.bytes(spec.file_bytes)).collect();
    for f in &model {
        digest.add(&f[..64]);
    }
    let pool = rng.bytes(POOL + MAX_IO);
    digest.add(&pool[..4096]);
    let mut inputs = rng.fork(1);

    let mut out = Outcome::default();
    let mut bench = None;
    for _ in 0..SETUPS {
        if let Some(old) = bench.take() {
            Bench::teardown(old).expect("tear down a set-up");
        }
        let t = Instant::now();
        bench = Some(launch(spec, &tools, &conf, &model));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let b = bench.expect("at least one set-up");

    let (k, pid) = (b.k.clone(), b.session.attached);
    let mut tr = Tracer::new();
    let mut buf = vec![0u8; MAX_IO];
    let mut writes = 0u64;
    let mut user_bytes = 0u64;
    // A file whose write failed part-way has unknown content.
    let mut tainted = vec![false; files];
    let oracle = &mut out.oracle;
    let attaches = &mut out.attach;
    let probe = || attach_probes(&b.cntr, b.app, cfg, attaches);
    let m = timed_loop(
        cfg,
        k.clock(),
        &mut tr,
        &mut out.op_lat,
        "op.file",
        probe,
        |tr, measured| {
            let write = inputs.chance(spec.write_pct, 100);
            let len = inputs.range(MIN_IO, MAX_IO + 1);
            let op = OpInput {
                file: inputs.range(0, files),
                write,
                fsync: write
                    && spec.fsync_every > 0
                    && (writes + 1).is_multiple_of(spec.fsync_every),
                offset: inputs.range(0, spec.file_bytes - len + 1),
                len,
                src: inputs.range(0, POOL),
            };
            if op.write {
                writes += 1;
                let data = &pool[op.src..op.src + op.len];
                match write_op(&k, pid, &op, data, tr) {
                    Ok(()) => {
                        model[op.file][op.offset..op.offset + op.len].copy_from_slice(data);
                        if measured {
                            user_bytes += op.len as u64;
                        }
                        Step::Done(op.len as u64)
                    }
                    Err(_) => {
                        tainted[op.file] = true;
                        Step::Failed
                    }
                }
            } else {
                match read_op(&k, pid, spec, &op, &mut buf, tr) {
                    Ok((size, got)) => {
                        if let Some(size) = size {
                            oracle.check(size == spec.file_bytes as u64, || {
                                format!("{}: size {size}, want {}", path(op.file), spec.file_bytes)
                            });
                        }
                        let want = &model[op.file][op.offset..op.offset + op.len];
                        oracle.check(buf[..got] == *want, || {
                            format!(
                                "{}: read of {} at {} differs from the model",
                                path(op.file),
                                op.len,
                                op.offset
                            )
                        });
                        Step::Done(got as u64)
                    }
                    Err(_) => Step::Failed,
                }
            }
        },
    );
    out.windows = m.windows;
    out.sim_ns = m.sim_ns;

    // Durability: everything acknowledged must be on disk after sync.
    let synced = k.sync().and_then(|()| k.sync());
    out.oracle
        .check(synced.is_ok(), || format!("sync: {synced:?}"));
    let detached = b.teardown();
    out.oracle
        .check(detached.is_ok(), || format!("detach: {detached:?}"));
    let dropped = k.drop_caches();
    out.oracle
        .check(dropped.is_ok(), || format!("drop_caches: {dropped:?}"));
    for (i, want) in model.iter().enumerate().filter(|(i, _)| !tainted[*i]) {
        let got = read_file(&k, Pid::INIT, &path(i));
        out.oracle.check(got.as_deref() == Ok(want.as_slice()), || {
            format!("{}: native re-read differs from the model", path(i))
        });
    }
    out.digest = digest.value();

    common_layers(&mut out.layers, &m.delta, &tr, out.windows.ops, user_bytes);
    out.tracer = tr;
    out
}
