//! Whole-message socket I/O over the non-blocking `Kernel` sockets: a full
//! or empty socket is retried after pumping the attach plane.

use crate::trace::Tracer;
use cntr_core::EventLoop;
use cntr_kernel::Kernel;
use cntr_types::{Errno, Pid, SysResult};

/// Pumps without progress before a transfer is given up.
const MAX_STALLS: u32 = 64;

fn pump(plane: &EventLoop, tr: &mut Tracer) -> SysResult<usize> {
    tr.span("core.plane.pump", || plane.pump_until_quiet())
}

/// Writes all of `data` to `fd`.
pub fn send_all(
    k: &Kernel,
    pid: Pid,
    fd: u32,
    data: &[u8],
    plane: &EventLoop,
    tr: &mut Tracer,
) -> SysResult<()> {
    let (mut sent, mut stalls) = (0, 0);
    while sent < data.len() {
        match tr.span("kernel.socket_rw", || k.write_fd(pid, fd, &data[sent..])) {
            Ok(n) => {
                sent += n;
                stalls = 0;
            }
            Err(Errno::EAGAIN) if stalls < MAX_STALLS => {
                stalls += 1;
                pump(plane, tr)?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes from `fd`.
pub fn recv_exact(
    k: &Kernel,
    pid: Pid,
    fd: u32,
    buf: &mut [u8],
    plane: &EventLoop,
    tr: &mut Tracer,
) -> SysResult<()> {
    let (mut got, mut stalls) = (0, 0);
    while got < buf.len() {
        match tr.span("kernel.socket_rw", || k.read_fd(pid, fd, &mut buf[got..])) {
            Ok(0) => return Err(Errno::ECONNRESET),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(Errno::EAGAIN) if stalls < MAX_STALLS => {
                stalls += 1;
                pump(plane, tr)?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
