//! The benchmark's own span recorder: wall-clock spans around the calls it
//! makes into `crates/*`, kept in memory and written out at exit.
//!
//! Spans inside the program are a later change; until then every span here
//! starts and ends in the benchmark's files. A span carries a name, start,
//! end, the span that caused it, and the id of the op it belongs to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Recorder`]; [`ROOT`] marks "no parent".
pub type SpanId = u32;
/// Parent of a top-level span.
pub const ROOT: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.run_fast_payment_batch`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// The enclosing span, or [`ROOT`].
    pub parent: SpanId,
    /// The op (payment batch, session, attack, recovery round) it served.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. A disabled recorder records nothing and
/// costs one branch per call, so the untraced pass can share the code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: u64,
}

impl Recorder {
    /// A recorder that keeps spans, with times relative to `epoch`.
    pub fn enabled(epoch: Instant) -> Recorder {
        Recorder {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that drops everything.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::enabled(Instant::now())
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop();
        debug_assert_eq!(open, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Adopts spans recorded on a worker thread (same epoch) as children of
    /// the innermost open span.
    pub fn adopt(&mut self, worker: Recorder) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.extend(worker.spans.into_iter().map(|mut span| {
            span.parent = if span.parent == ROOT {
                parent
            } else {
                span.parent + base
            };
            span
        }));
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns: duration minus the part of the interval the
    /// span's children cover (parallel children count once).
    pub self_ns: u64,
}

/// Totals per span name, plus the summed duration of top-level spans.
pub fn totals(spans: &[Span]) -> (BTreeMap<&'static str, NameTotals>, u64) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut top_level_ns = 0u64;
    for (span, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
        if span.parent == ROOT {
            top_level_ns += span.duration_ns();
        }
    }
    (by_name, top_level_ns)
}

/// Renders spans as JSONL, one object per line:
/// `{"id":3,"parent":1,"op":17,"name":"core.checkpoint","start_ns":…,"end_ns":…}`.
/// A top-level span has `"parent":null`.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.op, span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping (parallel) children cover 10..60 of a 0..100 parent.
        let spans = vec![
            span("slice", 0, 100, ROOT),
            span("shard", 10, 50, 0),
            span("shard", 20, 60, 0),
            span("leaf", 25, 30, 2),
        ];
        let (by_name, top) = totals(&spans);
        assert_eq!(top, 100);
        assert_eq!(by_name["slice"].self_ns, 50);
        assert_eq!(by_name["shard"].total_ns, 80);
        assert_eq!(by_name["shard"].self_ns, 75);
        assert_eq!(by_name["leaf"].count, 1);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let epoch = Instant::now();
        let mut main = Recorder::enabled(epoch);
        let outer = main.enter("outer");
        let mut worker = Recorder::enabled(epoch);
        worker.set_op(9);
        let a = worker.enter("a");
        let b = worker.enter("b");
        worker.exit(b);
        worker.exit(a);
        main.adopt(worker);
        main.exit(outer);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0, "worker root hangs under the open span");
        assert_eq!(spans[2].parent, 1, "worker-internal parent is rebased");
        assert_eq!(spans[2].op, 9);
        assert!(render_jsonl(spans).lines().count() == 3);
        assert!(render_jsonl(spans).starts_with("{\"id\":0,\"parent\":null,"));

        let mut off = Recorder::disabled();
        let id = off.enter("x");
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
