//! Pipes: the kernel buffer behind `pipe(2)` and the `splice(2)` fast path.
//!
//! CNTR uses pipes twice: the pseudo-TTY forwards shell I/O through them
//! (paper §3.2.4) and the splice-read optimization moves file data "from the
//! source file descriptor into a kernel pipe buffer and then to the
//! destination file descriptor" without copying through userspace (§3.3).
//!
//! The buffer is built like Linux's `pipe_buffer` ring: a queue of
//! refcounted [`Bytes`] segments plus a byte count. `write` copies the
//! caller's slice in once; `read` copies each segment out once and
//! re-slices a partly read one. Small writes merge into an open tail page
//! (Linux's `PIPE_BUF_FLAG_CAN_MERGE` buffer), so byte-at-a-time output
//! does not fragment the ring; that page is copied once more when it is
//! sealed into a segment. `splice` never copies: it detaches
//! [`Segments`] from one pipe ([`Pipe::take`]) and appends them to another
//! ([`Pipe::write_segments`]), so the destination aliases the writer's
//! storage. Capacity is still counted in bytes.

use bytes::Bytes;
use cntr_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default pipe capacity (64 KiB, as on Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// Size of the open tail page small writes merge into.
const MERGE_PAGE: usize = 4096;

/// A run of pipe segments in stream order, detached from one pipe and on
/// its way into another (or back). Holding one pins the storage, not a
/// copy of it.
#[derive(Debug, Default)]
pub struct Segments {
    segs: VecDeque<Bytes>,
    len: usize,
}

impl Segments {
    /// Total bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments, oldest first (never empty ones).
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> {
        self.segs.iter()
    }

    fn push_back(&mut self, seg: Bytes) {
        self.len += seg.len();
        self.segs.push_back(seg);
    }

    /// Splits at byte `at`: `self` keeps `[0, at)`, the rest is returned.
    /// A segment straddling `at` is re-sliced, not copied.
    fn split_off(&mut self, at: usize) -> Segments {
        debug_assert!(at <= self.len);
        let mut kept = 0;
        let mut i = 0;
        while i < self.segs.len() && kept + self.segs[i].len() <= at {
            kept += self.segs[i].len();
            i += 1;
        }
        let mut rest = self.segs.split_off(i);
        if kept < at {
            let seg = rest.pop_front().expect("`at` lies inside a segment");
            let k = at - kept;
            self.segs.push_back(seg.slice(..k));
            rest.push_front(seg.slice(k..));
        }
        let rest_len = self.len - at;
        self.len = at;
        Segments {
            segs: rest,
            len: rest_len,
        }
    }
}

#[derive(Debug)]
struct PipeState {
    /// Sealed segments, oldest first; none is empty.
    segs: VecDeque<Bytes>,
    /// The open tail page small writes merge into. Its bytes follow every
    /// sealed segment in stream order.
    tail: Vec<u8>,
    /// Bytes buffered: the segment lengths plus `tail.len()`.
    len: usize,
    read_closed: bool,
    write_closed: bool,
}

impl PipeState {
    /// Seals the open tail into a segment. This copies the page (at most
    /// [`MERGE_PAGE`] bytes): `Bytes` cannot adopt a `Vec` in place.
    fn seal(&mut self) {
        if !self.tail.is_empty() {
            let page = std::mem::take(&mut self.tail);
            self.segs.push_back(Bytes::copy_from_slice(&page));
        }
    }

    /// Appends a copy of `data`, merging it into the tail page if it fits.
    fn push(&mut self, data: &[u8]) {
        if self.tail.len() + data.len() > MERGE_PAGE {
            self.seal();
        }
        if data.len() < MERGE_PAGE {
            self.tail.extend_from_slice(data);
        } else {
            self.segs.push_back(Bytes::copy_from_slice(data));
        }
        self.len += data.len();
    }

    /// The oldest buffered bytes: the front segment, else the tail.
    fn front(&self) -> &[u8] {
        self.segs.front().map_or(&self.tail[..], |seg| &seg[..])
    }

    /// Drops `k` bytes from the front of [`front`](Self::front).
    fn consume(&mut self, k: usize) {
        match self.segs.front_mut() {
            Some(seg) if k == seg.len() => {
                self.segs.pop_front();
            }
            Some(seg) => *seg = seg.slice(k..),
            None => {
                self.tail.drain(..k);
            }
        }
        self.len -= k;
    }

    /// `EAGAIN` for an empty pipe still open for writing; `Ok(true)` at
    /// EOF (empty and write end closed); `Ok(false)` when bytes are
    /// buffered.
    fn empty_status(&self) -> SysResult<bool> {
        match (self.len, self.write_closed) {
            (0, true) => Ok(true),
            (0, false) => Err(Errno::EAGAIN),
            _ => Ok(false),
        }
    }

    /// Free space for a writer; `EPIPE` if the read end is gone, `EAGAIN`
    /// if full. `unread` push-back can leave the buffer transiently over
    /// capacity, which counts as full.
    fn room(&self, capacity: usize) -> SysResult<usize> {
        if self.read_closed {
            return Err(Errno::EPIPE);
        }
        match capacity.saturating_sub(self.len) {
            0 => Err(Errno::EAGAIN),
            room => Ok(room),
        }
    }
}

/// A unidirectional in-kernel byte buffer.
///
/// Non-blocking semantics only: the simulation has no blocked threads, so a
/// full pipe returns `EAGAIN` and an empty one returns `EAGAIN` until the
/// write side closes (then reads return 0 = EOF). Event loops poll readiness
/// through [`Pollable`].
#[derive(Debug)]
pub struct Pipe {
    capacity: usize,
    state: Mutex<PipeState>,
}

impl Pipe {
    /// Creates a pipe with the default capacity.
    pub fn new() -> Arc<Pipe> {
        Pipe::with_capacity(PIPE_CAPACITY)
    }

    /// Creates a pipe with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            capacity,
            state: Mutex::new_class(
                "kernel.pipe",
                PipeState {
                    segs: VecDeque::new(),
                    tail: Vec::new(),
                    len: 0,
                    read_closed: false,
                    write_closed: false,
                },
            ),
        })
    }

    /// Writes as many bytes as fit; `EPIPE` if the read end is gone,
    /// `EAGAIN` if full.
    pub fn write(&self, data: &[u8]) -> SysResult<usize> {
        let mut st = self.state.lock();
        let n = st.room(self.capacity)?.min(data.len());
        st.push(&data[..n]);
        Ok(n)
    }

    /// The `splice` write: moves as many bytes of `segs` as fit onto the
    /// end of this pipe by reference, leaving the refused tail in `segs`.
    /// Errors as [`write`](Self::write), with `segs` untouched.
    pub fn write_segments(&self, segs: &mut Segments) -> SysResult<usize> {
        let mut st = self.state.lock();
        let n = st.room(self.capacity)?.min(segs.len());
        let rest = segs.split_off(n);
        let accepted = std::mem::replace(segs, rest);
        // The tail's bytes precede the new segments.
        st.seal();
        st.segs.extend(accepted.segs);
        st.len += n;
        Ok(n)
    }

    /// The `splice` read: detaches up to `max` bytes from the front as
    /// segments (no copy). Empty at EOF, `EAGAIN` when nothing is
    /// available yet.
    pub fn take(&self, max: usize) -> SysResult<Segments> {
        let mut st = self.state.lock();
        let mut out = Segments::default();
        if st.empty_status()? {
            return Ok(out);
        }
        if st.len - st.tail.len() < max {
            st.seal();
        }
        while out.len < max {
            let Some(seg) = st.segs.pop_front() else {
                break;
            };
            let want = max - out.len;
            if seg.len() > want {
                st.segs.push_front(seg.slice(want..));
                out.push_back(seg.slice(..want));
            } else {
                out.push_back(seg);
            }
        }
        st.len -= out.len;
        Ok(out)
    }

    /// Puts segments back at the *front* of the buffer, undoing a
    /// [`take`](Self::take). This is the `splice` push-back path: when the
    /// destination accepts fewer bytes than were detached from the source,
    /// the remainder returns here instead of being dropped. May leave the
    /// buffer transiently over capacity (only ever with bytes that were
    /// just taken from it), which `write` tolerates.
    pub fn unread(&self, segs: Segments) {
        let mut st = self.state.lock();
        st.len += segs.len;
        for seg in segs.segs.into_iter().rev() {
            st.segs.push_front(seg);
        }
    }

    /// Reads up to `buf.len()` bytes; 0 means EOF (write end closed and
    /// drained), `EAGAIN` means nothing available yet.
    pub fn read(&self, buf: &mut [u8]) -> SysResult<usize> {
        let mut st = self.state.lock();
        if st.empty_status()? {
            return Ok(0);
        }
        let mut done = 0;
        while done < buf.len() && st.len > 0 {
            let front = st.front();
            let k = front.len().min(buf.len() - done);
            buf[done..done + k].copy_from_slice(&front[..k]);
            st.consume(k);
            done += k;
        }
        Ok(done)
    }

    /// Reads up to and including the next `delim` under one lock, appending
    /// to `out` (`BufRead::read_until` over the segment ring). Without a
    /// `delim` buffered, takes everything there is. Returns the count; 0
    /// means EOF, `EAGAIN` means nothing available yet.
    pub fn read_until(&self, delim: u8, out: &mut Vec<u8>) -> SysResult<usize> {
        let mut st = self.state.lock();
        if st.empty_status()? {
            return Ok(0);
        }
        let mut done = 0;
        while st.len > 0 {
            let front = st.front();
            let (k, found) = match front.iter().position(|&b| b == delim) {
                Some(i) => (i + 1, true),
                None => (front.len(), false),
            };
            out.extend_from_slice(&front[..k]);
            st.consume(k);
            done += k;
            if found {
                break;
            }
        }
        Ok(done)
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().len
    }

    /// True if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Nominal capacity (`F_GETPIPE_SZ`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(address, length)` of every buffered segment in stream order, the
    /// open tail page last: what the zero-copy proofs compare pointers on.
    pub fn segment_layout(&self) -> Vec<(usize, usize)> {
        let st = self.state.lock();
        let sealed = st.segs.iter().map(|seg| &seg[..]);
        sealed
            .chain(Some(&st.tail[..]).filter(|tail| !tail.is_empty()))
            .map(|seg| (seg.as_ptr() as usize, seg.len()))
            .collect()
    }

    /// Closes the write end.
    pub fn close_write(&self) {
        self.state.lock().write_closed = true;
    }

    /// Closes the read end.
    pub fn close_read(&self) {
        self.state.lock().read_closed = true;
    }

    /// True once the write end is closed.
    pub fn write_closed(&self) -> bool {
        self.state.lock().write_closed
    }
}

/// Readiness interface used by [`crate::epoll`].
pub trait Pollable: Send + Sync {
    /// Data can be read (or EOF/peer-hangup is observable).
    fn poll_readable(&self) -> bool;
    /// A write of at least one byte would succeed.
    fn poll_writable(&self) -> bool;
    /// The other side is gone.
    fn poll_hangup(&self) -> bool;
}

impl Pollable for Pipe {
    fn poll_readable(&self) -> bool {
        let st = self.state.lock();
        st.len > 0 || st.write_closed
    }

    fn poll_writable(&self) -> bool {
        let st = self.state.lock();
        !st.read_closed && st.len < self.capacity
    }

    fn poll_hangup(&self) -> bool {
        let st = self.state.lock();
        st.read_closed || (st.write_closed && st.len == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let p = Pipe::new();
        assert_eq!(p.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(p.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(p.read(&mut buf), Err(Errno::EAGAIN));
    }

    #[test]
    fn capacity_limits_writes() {
        let p = Pipe::with_capacity(4);
        assert_eq!(p.write(b"abcdef").unwrap(), 4);
        assert_eq!(p.write(b"x"), Err(Errno::EAGAIN));
        let mut buf = [0u8; 2];
        p.read(&mut buf).unwrap();
        assert_eq!(p.write(b"xy").unwrap(), 2);
    }

    #[test]
    fn eof_after_write_close() {
        let p = Pipe::new();
        p.write(b"last").unwrap();
        p.close_write();
        let mut buf = [0u8; 8];
        assert_eq!(p.read(&mut buf).unwrap(), 4);
        assert_eq!(p.read(&mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn epipe_after_read_close() {
        let p = Pipe::new();
        p.close_read();
        assert_eq!(p.write(b"x"), Err(Errno::EPIPE));
    }

    #[test]
    fn pollable_states() {
        let p = Pipe::with_capacity(2);
        assert!(!p.poll_readable());
        assert!(p.poll_writable());
        p.write(b"ab").unwrap();
        assert!(p.poll_readable());
        assert!(!p.poll_writable(), "full pipe is not writable");
        p.close_write();
        assert!(p.poll_readable(), "EOF counts as readable");
    }

    #[test]
    fn read_until_stops_after_the_delimiter() {
        let p = Pipe::new();
        p.write(b"ls -l\nps").unwrap();
        let mut line = Vec::new();
        assert_eq!(p.read_until(b'\n', &mut line).unwrap(), 6);
        assert_eq!(line, b"ls -l\n");
        line.clear();
        assert_eq!(p.read_until(b'\n', &mut line).unwrap(), 2, "partial line");
        assert_eq!(line, b"ps");
        assert_eq!(p.read_until(b'\n', &mut line), Err(Errno::EAGAIN));
        p.close_write();
        assert_eq!(p.read_until(b'\n', &mut line).unwrap(), 0, "EOF");
    }

    #[test]
    fn large_writes_are_one_segment_and_reads_reslice_it() {
        let p = Pipe::new();
        let data: Vec<u8> = (0..16 * 1024).map(|i| i as u8).collect();
        p.write(&data).unwrap();
        let [(ptr, len)] = p.segment_layout()[..] else {
            panic!("one segment expected");
        };
        assert_eq!(len, data.len());
        let mut buf = [0u8; 100];
        p.read(&mut buf).unwrap();
        assert_eq!(p.segment_layout(), vec![(ptr + 100, len - 100)]);
    }
}
