//! The segment-ring pipe against a byte-queue model, and the zero-copy
//! proofs for `splice`.
//!
//! The pipe stores refcounted segments instead of bytes, and `splice`
//! moves those segments between pipes and sockets. Neither may change what
//! a reader observes: the property test replays random
//! write / read / read-until / take-and-unread / splice / close sequences
//! over two pipes at capacities 1, 7, 4096 and 64 KiB and checks every
//! return value and every byte against a `VecDeque<u8>` model of the
//! byte-wise pipe. The remaining tests pin down what the segments are for:
//! a spliced payload keeps its storage (pointer identity, as in
//! `cntr_fuse::testing::copies_along`), a refused tail returns to the
//! source front in order, and byte-at-a-time writes do not fragment the
//! ring.

use cntr_fs::memfs::memfs;
use cntr_fuse::copies_along;
use cntr_kernel::pipe::{Pipe, Pollable, PIPE_CAPACITY};
use cntr_kernel::{CacheMode, Kernel, KernelConfig};
use cntr_types::{DevId, Errno, Pid, SimClock, SysResult};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

const CAPS: [usize; 4] = [1, 7, 4096, PIPE_CAPACITY];

fn kernel() -> Kernel {
    let clock = SimClock::new();
    let fs = memfs(DevId(1), clock.clone());
    Kernel::with_clock(clock, fs, CacheMode::native(), KernelConfig::paper_legacy())
}

/// The byte-wise pipe: what every segment-ring operation must be
/// indistinguishable from.
struct Model {
    buf: VecDeque<u8>,
    cap: usize,
    read_closed: bool,
    write_closed: bool,
}

impl Model {
    fn new(cap: usize) -> Model {
        Model {
            buf: VecDeque::new(),
            cap,
            read_closed: false,
            write_closed: false,
        }
    }

    /// `EAGAIN` when empty and open, `Ok(true)` at EOF.
    fn empty_status(&self) -> SysResult<bool> {
        match (self.buf.is_empty(), self.write_closed) {
            (true, true) => Ok(true),
            (true, false) => Err(Errno::EAGAIN),
            _ => Ok(false),
        }
    }

    fn room(&self) -> SysResult<usize> {
        if self.read_closed {
            return Err(Errno::EPIPE);
        }
        match self.cap.saturating_sub(self.buf.len()) {
            0 => Err(Errno::EAGAIN),
            room => Ok(room),
        }
    }

    fn write(&mut self, data: &[u8]) -> SysResult<usize> {
        let n = self.room()?.min(data.len());
        self.buf.extend(&data[..n]);
        Ok(n)
    }

    fn read(&mut self, len: usize) -> SysResult<Vec<u8>> {
        if self.empty_status()? {
            return Ok(Vec::new());
        }
        let n = len.min(self.buf.len());
        Ok(self.buf.drain(..n).collect())
    }

    fn read_until(&mut self, delim: u8) -> SysResult<Vec<u8>> {
        if self.empty_status()? {
            return Ok(Vec::new());
        }
        let n = self
            .buf
            .iter()
            .position(|&b| b == delim)
            .map_or(self.buf.len(), |i| i + 1);
        Ok(self.buf.drain(..n).collect())
    }
}

/// `splice(2)` between two model pipes (possibly the same one), in the
/// kernel's order: source checks, then take, then destination checks,
/// then push-back of whatever the destination refused.
fn model_splice(models: &mut [Model; 2], from: usize, to: usize, len: usize) -> SysResult<usize> {
    if models[from].empty_status()? {
        return Ok(0);
    }
    let m = len.min(PIPE_CAPACITY).min(models[from].buf.len());
    let mut taken: VecDeque<u8> = models[from].buf.drain(..m).collect();
    if m == 0 {
        return Ok(0);
    }
    let result = models[to].room().map(|room| room.min(m));
    if let Ok(w) = result {
        let moved: Vec<u8> = taken.drain(..w).collect();
        models[to].buf.extend(moved);
    }
    for b in taken.into_iter().rev() {
        models[from].buf.push_front(b);
    }
    result
}

#[derive(Debug, Clone)]
enum Op {
    /// `(pipe, len)`: a write of `len` fresh bytes.
    Write(usize, usize),
    /// `(pipe, len)`.
    Read(usize, usize),
    /// `(pipe, delimiter)`.
    ReadUntil(usize, u8),
    /// `(pipe, max)`: detach up to `max` bytes, check them, put them back.
    TakeUnread(usize, usize),
    /// `(from, to, len)` through `Kernel::splice`.
    Splice(usize, usize, usize),
    CloseRead(usize),
    CloseWrite(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 1usize..64).prop_map(|(p, n)| Op::Write(p, n)),
        (0usize..2, 1usize..20_000).prop_map(|(p, n)| Op::Write(p, n)),
        (0usize..2, 0usize..20_000).prop_map(|(p, n)| Op::Read(p, n)),
        (0usize..2, 0u8..251).prop_map(|(p, d)| Op::ReadUntil(p, d)),
        (0usize..2, 0usize..20_000).prop_map(|(p, n)| Op::TakeUnread(p, n)),
        (0usize..2, 0usize..2, 0usize..80_000).prop_map(|(f, t, n)| Op::Splice(f, t, n)),
        (0usize..2).prop_map(Op::CloseRead),
        (0usize..2).prop_map(Op::CloseWrite),
    ]
}

/// Two pipes, each installed as a read and a write descriptor of one
/// process, mirrored by two models.
struct Rig {
    k: Kernel,
    pid: Pid,
    pipes: [Arc<Pipe>; 2],
    rfd: [u32; 2],
    wfd: [u32; 2],
    models: [Model; 2],
    /// Next payload byte: a cycle over 251 values, so reordered or
    /// duplicated bytes are caught and every delimiter occurs.
    seq: usize,
}

impl Rig {
    fn new(caps: [usize; 2]) -> Rig {
        let k = kernel();
        let pid = Pid::INIT;
        let pipes = caps.map(Pipe::with_capacity);
        let rfd = [0, 1].map(|i| k.adopt_pipe(pid, &pipes[i], false).unwrap());
        let wfd = [0, 1].map(|i| k.adopt_pipe(pid, &pipes[i], true).unwrap());
        Rig {
            k,
            pid,
            pipes,
            rfd,
            wfd,
            models: caps.map(Model::new),
            seq: 0,
        }
    }

    fn payload(&mut self, len: usize) -> Vec<u8> {
        let data = (self.seq..self.seq + len)
            .map(|i| (i % 251) as u8)
            .collect();
        self.seq += len;
        data
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Write(p, len) => {
                let data = self.payload(len);
                let got = self.pipes[p].write(&data);
                assert_eq!(got, self.models[p].write(&data), "{op:?}");
            }
            Op::Read(p, len) => {
                let mut buf = vec![0u8; len];
                let got = self.pipes[p].read(&mut buf).map(|n| buf[..n].to_vec());
                assert_eq!(got, self.models[p].read(len), "{op:?}");
            }
            Op::ReadUntil(p, delim) => {
                let mut line = b"kept".to_vec();
                let got = self.pipes[p].read_until(delim, &mut line);
                let want = self.models[p].read_until(delim);
                assert_eq!(got, want.clone().map(|w| w.len()), "{op:?}");
                assert_eq!(&line[..4], b"kept", "read_until appends");
                assert_eq!(line[4..], want.unwrap_or_default(), "{op:?}");
            }
            Op::TakeUnread(p, max) => {
                let model = &self.models[p];
                let want = model.empty_status().map(|_| {
                    let n = max.min(model.buf.len());
                    model.buf.iter().take(n).copied().collect::<Vec<u8>>()
                });
                let got = self.pipes[p].take(max);
                let bytes = got
                    .as_ref()
                    .map(|segs| segs.iter().flat_map(|s| s.to_vec()).collect())
                    .map_err(|&e| e);
                assert_eq!(bytes, want, "{op:?}");
                if let Ok(segs) = got {
                    assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), segs.len());
                    assert!(segs.iter().all(|s| !s.is_empty()), "no empty segments");
                    self.pipes[p].unread(segs);
                }
            }
            Op::Splice(from, to, len) => {
                let got = self.k.splice(self.pid, self.rfd[from], self.wfd[to], len);
                assert_eq!(got, model_splice(&mut self.models, from, to, len), "{op:?}");
            }
            Op::CloseRead(p) => {
                self.pipes[p].close_read();
                self.models[p].read_closed = true;
            }
            Op::CloseWrite(p) => {
                self.pipes[p].close_write();
                self.models[p].write_closed = true;
            }
        }
        for (pipe, model) in self.pipes.iter().zip(&self.models) {
            let layout = pipe.segment_layout();
            assert_eq!(pipe.len(), model.buf.len(), "after {op:?}");
            assert_eq!(layout.iter().map(|&(_, n)| n).sum::<usize>(), pipe.len());
            assert!(layout.iter().all(|&(_, n)| n > 0), "no empty segments");
            assert_eq!(pipe.room(), model.cap.saturating_sub(model.buf.len()));
            assert_eq!(
                pipe.poll_readable(),
                !model.buf.is_empty() || model.write_closed
            );
            assert_eq!(
                pipe.poll_writable(),
                !model.read_closed && model.buf.len() < model.cap
            );
            assert_eq!(
                pipe.poll_hangup(),
                model.read_closed || (model.write_closed && model.buf.is_empty())
            );
        }
    }

    /// Drains both pipes and compares what is left byte for byte.
    fn drain_and_compare(&mut self) {
        for (pipe, model) in self.pipes.iter().zip(&mut self.models) {
            let mut rest = Vec::new();
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = pipe.read(&mut buf) {
                rest.extend_from_slice(&buf[..n]);
            }
            assert_eq!(rest, model.buf.drain(..).collect::<Vec<u8>>());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_ring_matches_the_byte_queue_model(
        ops in proptest::collection::vec(op_strategy(), 1..64),
        other in 0usize..4,
    ) {
        for cap in CAPS {
            let mut rig = Rig::new([cap, CAPS[other]]);
            for op in &ops {
                rig.apply(op);
            }
            rig.drain_and_compare();
        }
    }
}

/// A 16 KiB payload written once crosses a pipe → socket → pipe splice
/// chain without being copied: the destination pipe holds the writer's
/// segment, and the socket's own queue held it by reference too.
#[test]
fn spliced_socket_payload_aliases_the_writers_segment() {
    let k = kernel();
    let pid = Pid::INIT;
    let (src, dst) = (Pipe::new(), Pipe::new());
    let src_r = k.adopt_pipe(pid, &src, false).unwrap();
    let src_w = k.adopt_pipe(pid, &src, true).unwrap();
    let dst_w = k.adopt_pipe(pid, &dst, true).unwrap();
    let (sa, sb) = k.socketpair(pid).unwrap();

    let payload: Vec<u8> = (0..16 * 1024).map(|i| (i * 13) as u8).collect();
    assert_eq!(k.write_fd(pid, src_w, &payload).unwrap(), payload.len());
    let [(written, len)] = src.segment_layout()[..] else {
        panic!("a 16 KiB write is one segment");
    };
    assert_eq!(len, payload.len());

    assert_eq!(k.splice(pid, src_r, sa, usize::MAX).unwrap(), payload.len());
    assert_eq!(k.splice(pid, sb, dst_w, usize::MAX).unwrap(), payload.len());
    let [(arrived, len)] = dst.segment_layout()[..] else {
        panic!("the payload arrives as the one segment it left as");
    };
    assert_eq!(len, payload.len());
    assert_eq!(
        copies_along(&[written, arrived]),
        0,
        "splice copied the payload"
    );

    let mut buf = vec![0u8; payload.len()];
    assert_eq!(dst.read(&mut buf).unwrap(), payload.len());
    assert_eq!(buf, payload);
}

/// A destination with less room than the splice offers takes a prefix;
/// the refused tail is back at the source front, in order, still the
/// same storage, and the destination got exactly the prefix.
#[test]
fn partial_room_splice_returns_the_tail_to_the_source_front() {
    let k = kernel();
    let pid = Pid::INIT;
    let (src, dst) = (Pipe::new(), Pipe::with_capacity(100));
    let src_r = k.adopt_pipe(pid, &src, false).unwrap();
    let dst_w = k.adopt_pipe(pid, &dst, true).unwrap();
    dst.write(&[0xEE; 40]).unwrap();
    let payload: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
    src.write(&payload).unwrap();
    let [(ptr, _)] = src.segment_layout()[..] else {
        panic!("one segment");
    };

    assert_eq!(k.splice(pid, src_r, dst_w, payload.len()).unwrap(), 60);
    assert_eq!(src.segment_layout(), vec![(ptr + 60, payload.len() - 60)]);
    let mut rest = vec![0u8; payload.len()];
    assert_eq!(src.read(&mut rest).unwrap(), payload.len() - 60);
    assert_eq!(&rest[..payload.len() - 60], &payload[60..]);
    let mut got = [0u8; 100];
    assert_eq!(dst.read(&mut got).unwrap(), 100);
    assert_eq!(&got[..40], &[0xEE; 40]);
    assert_eq!(&got[40..], &payload[..60]);

    // A full destination refuses everything: EAGAIN, source untouched.
    dst.write(&[0; 100]).unwrap();
    src.write(b"kept").unwrap();
    assert_eq!(k.splice(pid, src_r, dst_w, 64), Err(Errno::EAGAIN));
    let mut kept = [0u8; 8];
    assert_eq!(src.read(&mut kept).unwrap(), 4);
    assert_eq!(&kept[..4], b"kept");
}

/// A dead socket destination resets the splice and restores the source.
#[test]
fn splice_into_a_dead_socket_resets_and_keeps_the_bytes() {
    let k = kernel();
    let pid = Pid::INIT;
    let src = Pipe::new();
    let src_r = k.adopt_pipe(pid, &src, false).unwrap();
    let (sa, sb) = k.socketpair(pid).unwrap();
    k.close(pid, sb).unwrap();
    src.write(b"undelivered").unwrap();
    assert_eq!(k.splice(pid, src_r, sa, 64), Err(Errno::ECONNRESET));
    assert_eq!(src.len(), 11);
    src.close_write();
    let mut buf = [0u8; 16];
    assert_eq!(src.read(&mut buf).unwrap(), 11);
    assert_eq!(k.splice(pid, src_r, sa, 64), Ok(0), "EOF");
}

/// Byte-at-a-time writes merge into tail pages: 64 KiB leaves at most
/// 17 segments, and the bytes read back in order.
#[test]
fn byte_at_a_time_writes_do_not_fragment_the_ring() {
    let pipe = Pipe::new();
    let data: Vec<u8> = (0..PIPE_CAPACITY).map(|i| (i % 251) as u8).collect();
    for b in &data {
        assert_eq!(pipe.write(std::slice::from_ref(b)).unwrap(), 1);
    }
    assert_eq!(pipe.write(b"x"), Err(Errno::EAGAIN), "full at capacity");
    let segments = pipe.segment_layout().len();
    assert!(
        segments <= 17,
        "{segments} segments for 64 KiB of 1-byte writes"
    );
    let mut out = vec![0u8; PIPE_CAPACITY];
    assert_eq!(pipe.read(&mut out).unwrap(), PIPE_CAPACITY);
    assert_eq!(out, data);
}
