//! Spans recorded by the benchmark around each public call it makes.
//!
//! A span has a name, start, end, parent and the request id of the op it
//! belongs to. Spans nest strictly (one driver thread), so a span's self
//! time is its duration minus the durations of its direct children. Each
//! op's spans are folded into per-name aggregates when the op ends; the
//! first ops are also kept whole, about [`KEEP_SPANS`] spans, and written
//! out as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the trace file: whole ops are kept until this many are.
const KEEP_SPANS: usize = 50_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct SpanRec {
    name: &'static str,
    req: u64,
    /// Index of the parent within the same op (within the kept spans
    /// once kept), or `NO_PARENT`.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals for one span name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time in microseconds (0 when never seen).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Returned by [`Tracer::open`]; closes the span it opened.
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    req: u64,
    stack: Vec<u32>,
    op: Vec<SpanRec>,
    aggs: BTreeMap<&'static str, Agg>,
    kept: Vec<SpanRec>,
    ops_traced: u64,
    spans: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            req: 0,
            stack: Vec::new(),
            op: Vec::new(),
            aggs: BTreeMap::new(),
            kept: Vec::new(),
            ops_traced: 0,
            spans: 0,
        }
    }

    /// Turns recording on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an op");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.op.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.op.push(SpanRec {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
        self.op[open.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    /// Starts op `req`: its root span is named `name`.
    pub fn begin_op(&mut self, name: &'static str, req: u64) -> Open {
        self.req = req;
        self.op.clear();
        self.open(name)
    }

    /// Ends the op begun with `root` and folds its spans into the
    /// aggregates.
    pub fn end_op(&mut self, root: Open) {
        if root.0 == NO_PARENT {
            return;
        }
        self.close(root);
        let mut covered = vec![0u64; self.op.len()];
        for s in &self.op {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, cover) in self.op.iter().zip(&covered) {
            let agg = self.aggs.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.dur_ns();
            agg.self_ns += s.dur_ns().saturating_sub(*cover);
        }
        self.spans += self.op.len() as u64;
        if self.kept.len() < KEEP_SPANS {
            let base = self.kept.len() as u32;
            self.kept.extend(self.op.iter().map(|s| SpanRec {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        self.ops_traced += 1;
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Aggregate over every span name starting with `prefix`.
    pub fn agg_prefix(&self, prefix: &str) -> Agg {
        let mut out = Agg::default();
        for (_, a) in self.aggs.iter().filter(|(n, _)| n.starts_with(prefix)) {
            out.count += a.count;
            out.total_ns += a.total_ns;
            out.self_ns += a.self_ns;
        }
        out
    }

    pub fn spans_recorded(&self) -> u64 {
        self.spans
    }

    pub fn ops_traced(&self) -> u64 {
        self.ops_traced
    }

    /// Writes the kept spans as a Chrome trace (`chrome://tracing`).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"req\":{},\"parent\":{parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                if i + 1 == self.kept.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        let root = t.begin_op("op", 7);
        let a = t.open("a");
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(a);
        t.end_op(root);
        let spans = &t.kept;
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7));
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[1].parent, 0);
        let (a, b) = (t.agg("a"), t.agg("b"));
        assert_eq!(a.self_ns + b.total_ns, a.total_ns);
        assert!(b.self_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        let root = t.begin_op("op", 1);
        assert_eq!(t.span("x", || 5), 5);
        t.end_op(root);
        assert_eq!(t.spans_recorded(), 0);
        assert!(t.kept.is_empty());
    }
}
