//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer (spans *inside* the crates are a later change
//! and must reuse these names). Everything stays in memory until the
//! workload ends; `--trace-out` writes the spans as JSON lines.
//!
//! A span's **self time** is its duration minus the durations of its
//! direct children; a layer's time on a workload is the sum of the self
//! times of the spans carrying that layer's names.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. `id`s are 1-based; `parent == 0` marks a root.
/// Spans of one op share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder; one per thread, merged at the end.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the recorders of one run so merged spans line up).
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans entered from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns how
    /// long it was open.
    pub fn exit(&mut self, id: u32) -> Duration {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        Duration::from_nanos(span.duration_ns())
    }

    /// Run `f` inside a span that has no recorded children; returns its
    /// result and how long the span lasted.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Record a child of the innermost open span from a duration some
    /// layer reported about itself (a `QueryProfile`'s stratum time):
    /// the child ends now and lasts `lasted`.
    pub fn reported_child(&mut self, name: &'static str, lasted: Duration) {
        let end_ns = self.now_ns();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: end_ns.saturating_sub(lasted.as_nanos() as u64),
            end_ns,
        });
    }

    /// Append another thread's spans, renumbering their ids.
    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total time and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            children_ns[s.parent as usize] += s.duration_ns();
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children_ns[s.id as usize]);
        }
        out
    }

    /// Write the spans, one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "sema.compile", 10, 30),
            span(3, 1, "eval.materialize", 30, 90),
            span(4, 3, "eval.strata", 40, 80),
            span(5, 0, "op", 100, 150),
        ];
        let t = rec.totals();
        assert_eq!(
            t["op"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 50
            }
        );
        assert_eq!(
            t["sema.compile"],
            NameTotals {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            t["eval.materialize"],
            NameTotals {
                count: 1,
                total_ns: 60,
                self_ns: 20
            }
        );
        assert_eq!(
            t["eval.strata"],
            NameTotals {
                count: 1,
                total_ns: 40,
                self_ns: 40
            }
        );
        // Self times partition the root time.
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 150);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = vec![span(1, 0, "op", 0, 10), span(2, 1, "x", 0, 25)];
        assert_eq!(rec.totals()["op"].self_ns, 0);
    }

    #[test]
    fn nesting_and_merge_keep_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.set_op(7);
        let op = a.enter("op");
        let ((), lasted) = a.leaf("txn.stage", || ());
        assert_eq!(lasted.as_nanos() as u64, a.spans()[1].duration_ns());
        a.reported_child("eval.strata", Duration::from_nanos(5));
        a.exit(op);
        assert_eq!(a.spans()[1].parent, 1);
        assert_eq!(a.spans()[2].parent, 1);
        assert!(a.spans().iter().all(|s| s.op == 7));
        let mut b = Recorder::new(epoch);
        let op = b.enter("op");
        b.leaf("client.roundtrip", || ());
        b.exit(op);
        a.merge(b);
        let merged = a.spans();
        assert_eq!(merged.len(), 5);
        assert_eq!((merged[3].id, merged[3].parent), (4, 0));
        assert_eq!((merged[4].id, merged[4].parent), (5, 4));
    }
}
