//! The pseudo-TTY (paper §3.2.4, "Shell I/O").
//!
//! "For isolation and security reasons, CNTR prevents leaking the terminal
//! file descriptors of the host to a container by leveraging pseudo-TTYs —
//! the pseudo-TTY acts as a proxy between the interactive shell and the user
//! terminal device." The master side faces the user's terminal (on the
//! host); the slave side faces the shell inside the nested namespace. Each
//! direction is a kernel pipe.

use cntr_kernel::pipe::Pipe;
use cntr_types::{Errno, SysResult};
use obs::{LazyCounter, Subsystem};
use std::sync::Arc;

// Bytes dropped by direct `shell_write` callers when the output pipe was
// full (the event-loop path never drops: it parks the tail instead).
static OBS_TRUNCATED: LazyCounter = LazyCounter::new(Subsystem::Core, "core.pty.truncated-writes");

/// A master/slave pseudo-TTY pair.
pub struct Pty {
    /// User → shell (master writes, slave reads).
    input: Arc<Pipe>,
    /// Shell → user (slave writes, master reads).
    output: Arc<Pipe>,
}

impl Pty {
    /// Allocates a pty pair with generous buffers.
    pub fn new() -> Arc<Pty> {
        Arc::new(Pty {
            input: Pipe::with_capacity(64 * 1024),
            output: Pipe::with_capacity(1024 * 1024),
        })
    }

    /// Master side: the user types a line (a trailing newline is added if
    /// missing). Delivery is atomic: a line that does not currently fit
    /// is refused whole with `EAGAIN` rather than split — the shell
    /// side treats a buffer that runs dry mid-line as a complete line,
    /// so a partial write would corrupt the command stream. A line
    /// larger than the pipe itself can never fit and yields `EINVAL`.
    pub fn user_write_line(&self, line: &str) -> SysResult<()> {
        let mut bytes = line.as_bytes().to_vec();
        if !bytes.ends_with(b"\n") {
            bytes.push(b'\n');
        }
        if bytes.len() > self.input.capacity() {
            return Err(Errno::EINVAL);
        }
        if self.input.room() < bytes.len() {
            return Err(Errno::EAGAIN);
        }
        let mut written = 0;
        while written < bytes.len() {
            written += self.input.write(&bytes[written..])?;
        }
        Ok(())
    }

    /// Master side: drains everything the shell printed so far.
    pub fn user_read_all(&self) -> String {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = self.output.read(&mut buf) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&out).to_string()
    }

    /// Slave side: the shell reads one line of input, if a complete line is
    /// buffered.
    pub fn shell_read_line(&self) -> SysResult<Option<String>> {
        // One locked scan of the pipe's segments; lines are delivered whole
        // because user_write_line writes atomically within capacity, so a
        // buffer that runs dry mid-line is taken as the whole line.
        let mut line = Vec::new();
        match self.input.read_until(b'\n', &mut line) {
            Ok(0) | Err(Errno::EAGAIN) => Ok(None),
            Ok(_) => {
                if line.last() == Some(&b'\n') {
                    line.pop();
                }
                Ok(Some(String::from_utf8_lossy(&line).to_string()))
            }
            Err(e) => Err(e),
        }
    }

    /// Slave side: the shell prints output. Returns how many bytes were
    /// accepted; a full buffer yields a *short* write rather than an
    /// error. Callers that discard the return value lose the tail (like
    /// a real tty with no reader) — those dropped bytes are surfaced in
    /// the `core.pty.truncated-writes` counter. The attach plane's
    /// event loop instead keeps the tail and re-arms on writability,
    /// via [`shell_write_raw`](Pty::shell_write_raw).
    pub fn shell_write(&self, text: &str) -> SysResult<usize> {
        let bytes = text.as_bytes();
        let written = self.shell_write_raw(bytes)?;
        if written < bytes.len() {
            OBS_TRUNCATED.add((bytes.len() - written) as u64);
        }
        Ok(written)
    }

    /// Slave side, raw variant: writes as much as fits and returns the
    /// count without recording truncation — the caller owns the tail.
    pub fn shell_write_raw(&self, bytes: &[u8]) -> SysResult<usize> {
        let mut written = 0;
        while written < bytes.len() {
            match self.output.write(&bytes[written..]) {
                Ok(n) => written += n,
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }

    /// The user→shell pipe (the attach plane registers its read end).
    pub(crate) fn input_pipe(&self) -> &Arc<Pipe> {
        &self.input
    }

    /// The shell→user pipe (the attach plane registers its write end).
    pub(crate) fn output_pipe(&self) -> &Arc<Pipe> {
        &self.output
    }

    /// Hangs up the terminal (user disconnect).
    pub fn hangup(&self) {
        self.input.close_write();
        self.output.close_read();
    }

    /// True once the user side is gone.
    pub fn hung_up(&self) -> bool {
        self.input.write_closed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let pty = Pty::new();
        pty.user_write_line("ls /var/lib/cntr").unwrap();
        assert_eq!(
            pty.shell_read_line().unwrap().as_deref(),
            Some("ls /var/lib/cntr")
        );
        assert_eq!(pty.shell_read_line().unwrap(), None);
        pty.shell_write("bin etc usr\n").unwrap();
        assert_eq!(pty.user_read_all(), "bin etc usr\n");
        assert_eq!(pty.user_read_all(), "");
    }

    #[test]
    fn multiple_queued_lines() {
        let pty = Pty::new();
        pty.user_write_line("first").unwrap();
        pty.user_write_line("second").unwrap();
        assert_eq!(pty.shell_read_line().unwrap().as_deref(), Some("first"));
        assert_eq!(pty.shell_read_line().unwrap().as_deref(), Some("second"));
    }

    #[test]
    fn hangup_observed_by_shell() {
        let pty = Pty::new();
        pty.user_write_line("exit").unwrap();
        pty.hangup();
        assert!(pty.hung_up());
        assert_eq!(pty.shell_read_line().unwrap().as_deref(), Some("exit"));
    }
}
