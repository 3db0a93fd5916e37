//! Building blocks shared by the workloads: a host with tools, the slim
//! application image, and whole-file helpers over the `Kernel` syscalls.

use crate::rng::{Digest, Rng};
use cntr_engine::image::ImageBuilder;
use cntr_engine::runtime::boot_host_with;
use cntr_engine::Image;
use cntr_kernel::{Kernel, KernelConfig};
use cntr_types::{Errno, Mode, OpenFlags, Pid, SimClock, SysResult};
use std::sync::Arc;

/// Host tools the attached shell runs; loaded through CntrFS on `exec`.
const TOOLS: &[&str] = &["ls", "cat", "gdb"];
const TOOL_BYTES: usize = 16 << 10;
/// The slim image: the application and its configuration, no tools.
pub const APP_IMAGE: &str = "app:slim";
pub const APP_NAME: &str = "app";
pub const APP_CONF: &str = "/etc/app.conf";

/// Boots a host whose `/usr/bin` holds seeded tool binaries.
pub fn boot(config: KernelConfig, tools: &[Vec<u8>]) -> Kernel {
    let k = boot_host_with(SimClock::new(), config);
    for (tool, bytes) in TOOLS.iter().zip(tools) {
        let path = format!("/usr/bin/{tool}");
        write_file(&k, Pid::INIT, &path, bytes).expect("install host tool");
        k.chmod(Pid::INIT, &path, Mode::RWXR_XR_X)
            .expect("chmod host tool");
    }
    k.setenv(Pid::INIT, "PATH", "/usr/bin").expect("set PATH");
    k
}

/// Seeded contents of the host tool binaries.
pub fn tool_bytes(rng: &mut Rng, digest: &mut Digest) -> Vec<Vec<u8>> {
    TOOLS
        .iter()
        .map(|_| {
            let b = rng.bytes(TOOL_BYTES);
            digest.add(&b);
            b
        })
        .collect()
}

/// Seeded text of the application's configuration file.
pub fn app_conf(rng: &mut Rng, digest: &mut Digest) -> String {
    let mut conf = String::from("[app]\n");
    for i in 0..4 {
        conf.push_str(&format!("key{i}={:016x}\n", rng.next_u64()));
    }
    digest.add(conf.as_bytes());
    conf
}

pub fn app_image(conf: &str) -> Arc<Image> {
    ImageBuilder::new(APP_NAME, "slim")
        .layer("app")
        .binary("/usr/local/bin/app", 500_000, &[])
        .text(APP_CONF, conf)
        .entrypoint("/usr/local/bin/app")
        .build()
}

/// Creates (or truncates) `path` and writes `data` to it.
pub fn write_file(k: &Kernel, pid: Pid, path: &str, data: &[u8]) -> SysResult<()> {
    let fd = k.open(pid, path, OpenFlags::create(), Mode::RW_R__R__)?;
    let mut done = 0;
    while done < data.len() {
        done += k.pwrite(pid, fd, done as u64, &data[done..])?;
    }
    k.close(pid, fd)
}

/// Reads all of `path`.
pub fn read_file(k: &Kernel, pid: Pid, path: &str) -> SysResult<Vec<u8>> {
    let fd = k.open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)?;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = match k.read_fd(pid, fd, &mut buf) {
            Ok(n) => n,
            Err(e) => {
                let _ = k.close(pid, fd);
                return Err(e);
            }
        };
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    k.close(pid, fd)?;
    Ok(out)
}

/// Creates every missing directory on `path`.
pub fn mkdir_p(k: &Kernel, pid: Pid, path: &str) -> SysResult<()> {
    let mut cur = String::new();
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        cur.push('/');
        cur.push_str(comp);
        match k.mkdir(pid, &cur, Mode::RWXR_XR_X) {
            Ok(()) | Err(Errno::EEXIST) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A numeric field of `/proc/self/status` (units dropped).
pub fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}
