//! A structured span/event tracer on an **injected sim-time clock**, with
//! causal `(trace_id, span_id, parent_id)` identities.
//!
//! Timestamps are plain `u64` microseconds supplied by the caller — the
//! simulation's own clock, never wall time — so a replay of the same
//! scenario at the same seed produces the **byte-identical** JSONL trace
//! (asserted by tests over the chaos harness and the sharded engine).
//!
//! Causality is explicit: each payment mints a root [`TraceContext`] and
//! every nested phase mints a child context from it, so the JSONL renders
//! a reconstructible span tree (see [`crate::critical_path`]). Context
//! ids are minted from a splitmix64 stream seeded by the session seed —
//! no globals, no atomics — which keeps traces identical across worker
//! pool sizes. The netsim transport takes a send's context as a value
//! and attributes its retransmissions, dedup drops, and backoff waits to
//! the payment that caused them, minting per-event children with
//! [`TraceContext::derive_child`]; an unattributed context is an untraced
//! send.
//!
//! The tracer is deliberately single-owner (`&mut self`, no interior
//! locking): each session/shard owns its own [`Tracer`] and the caller
//! merges event vectors in a deterministic order. Field values are
//! integers, booleans, and strings only — no floats — so rendering has
//! exactly one byte representation per event. Event storage is a bounded
//! ring: past [`Tracer::capacity`], the oldest half is discarded and
//! counted in [`Tracer::dropped_events`], so unbounded load runs cannot
//! grow memory without bound.

use std::fmt::Write as _;

/// A trace field value. Deliberately float-free: every variant has one
/// canonical textual form, which is what keeps traces byte-stable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Field {
        Field::I64(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Field {
        Field::Bool(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

/// The causal identity of one span: the payment-level trace it belongs
/// to, its own id, and its parent's span id (`0` for a root).
///
/// The all-zero value ([`TraceContext::UNATTRIBUTED`]) is the explicit
/// "no attribution" context: recording with it produces a context-free
/// event, and deriving a child from it stays unattributed. Ids are never
/// minted as zero, so zero is unambiguous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Groups every span of one payment; equals the root's span id.
    pub trace_id: u64,
    /// This span's own id, unique within the minting tracer.
    pub span_id: u64,
    /// The parent span's id; `0` marks a root.
    pub parent_id: u64,
}

impl TraceContext {
    /// The explicit "no attribution" context.
    pub const UNATTRIBUTED: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// True when this context attributes events to a real trace.
    pub fn is_attributed(&self) -> bool {
        self.trace_id != 0 && self.span_id != 0
    }

    /// Derives a child context without a [`Tracer`]: a pure function of
    /// `(self, salt)`, so components handed a context (the transport) can
    /// mint per-event child spans deterministically and independently of
    /// any id stream. Distinct salts give distinct child span ids.
    /// Unattributed parents stay unattributed.
    pub fn derive_child(&self, salt: u64) -> TraceContext {
        if !self.is_attributed() {
            return TraceContext::UNATTRIBUTED;
        }
        let mut z = self
            .span_id
            .wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TraceContext {
            trace_id: self.trace_id,
            span_id: if z == 0 { 1 } else { z },
            parent_id: self.span_id,
        }
    }
}

/// One recorded trace entry: a completed span (has a duration) or a point
/// event (no duration), stamped with sim-time microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim-time at which the span started / the event occurred, µs.
    pub at_micros: u64,
    /// Span duration in sim-time µs; `None` for point events.
    pub dur_micros: Option<u64>,
    /// Span/event name, e.g. `"session.register"`.
    pub name: &'static str,
    /// Causal identity; `None` renders the pre-causal context-free form.
    pub ctx: Option<TraceContext>,
    /// Structured attributes, in recording order.
    pub fields: Vec<(&'static str, Field)>,
}

/// Default event-ring capacity: generous enough that no current
/// experiment (E12/E14/E15 at full trial counts) comes near it.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Records spans and point events for one single-threaded owner.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// splitmix64 state behind [`Tracer::mint_root`]/[`Tracer::child_of`].
    id_state: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer; when `enabled` is false every record call is a no-op and
    /// the event vector stays empty. Context ids mint from seed `0`; use
    /// [`Tracer::with_seed`] when causal ids must replay per session.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_seed(enabled, 0)
    }

    /// A tracer whose context-id stream is a pure function of `seed`:
    /// two tracers at the same seed mint identical `(trace, span)` id
    /// sequences, which is what keeps causal traces byte-identical
    /// across replays and worker-pool sizes.
    pub fn with_seed(enabled: bool, seed: u64) -> Tracer {
        Tracer {
            enabled,
            events: Vec::new(),
            capacity: DEFAULT_TRACE_CAPACITY,
            dropped: 0,
            id_state: seed,
        }
    }

    /// Bounds the event ring to `capacity` events (clamped to ≥ 2): a seam
    /// for the ring tests, which would otherwise need a full default ring.
    #[cfg(test)]
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(2);
    }

    /// Events discarded by the ring bound so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Mints the next nonzero id from the splitmix64 stream.
    fn next_id(&mut self) -> u64 {
        loop {
            self.id_state = self.id_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.id_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z != 0 {
                return z;
            }
        }
    }

    /// Mints a root context (one per payment). On a disabled tracer this
    /// returns [`TraceContext::UNATTRIBUTED`] without touching the id
    /// stream, so toggling tracing never perturbs any other state.
    pub fn mint_root(&mut self) -> TraceContext {
        if !self.enabled {
            return TraceContext::UNATTRIBUTED;
        }
        let id = self.next_id();
        TraceContext {
            trace_id: id,
            span_id: id,
            parent_id: 0,
        }
    }

    /// Mints a child context under `parent`. An unattributed parent (or a
    /// disabled tracer) yields an unattributed child: corruption never
    /// fabricates attribution downstream.
    pub fn child_of(&mut self, parent: &TraceContext) -> TraceContext {
        if !self.enabled || !parent.is_attributed() {
            return TraceContext::UNATTRIBUTED;
        }
        TraceContext {
            trace_id: parent.trace_id,
            span_id: self.next_id(),
            parent_id: parent.span_id,
        }
    }

    /// Appends one event, applying the ring bound: at capacity the oldest
    /// half is discarded in bulk (amortized O(1)) and counted as dropped.
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            let discard = (self.capacity / 2).max(1);
            self.events.drain(..discard);
            self.dropped = self.dropped.saturating_add(discard as u64);
        }
        self.events.push(event);
    }

    /// Records a completed span `[start_micros, end_micros]` of sim-time,
    /// without causal identity. A span that ends before it starts records
    /// a zero duration rather than panicking (chaos schedules can reorder
    /// observations).
    pub fn span(
        &mut self,
        name: &'static str,
        start_micros: u64,
        end_micros: u64,
        fields: Vec<(&'static str, Field)>,
    ) {
        self.span_ctx(
            name,
            TraceContext::UNATTRIBUTED,
            start_micros,
            end_micros,
            fields,
        );
    }

    /// Records a completed span attributed to `ctx`. An unattributed
    /// context records the context-free legacy form.
    pub fn span_ctx(
        &mut self,
        name: &'static str,
        ctx: TraceContext,
        start_micros: u64,
        end_micros: u64,
        fields: Vec<(&'static str, Field)>,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            at_micros: start_micros,
            dur_micros: Some(end_micros.saturating_sub(start_micros)),
            name,
            ctx: ctx.is_attributed().then_some(ctx),
            fields,
        });
    }

    /// Records an instantaneous event at `at_micros` of sim-time, without
    /// causal identity.
    pub fn point(
        &mut self,
        name: &'static str,
        at_micros: u64,
        fields: Vec<(&'static str, Field)>,
    ) {
        self.point_ctx(name, TraceContext::UNATTRIBUTED, at_micros, fields);
    }

    /// Records an instantaneous event attributed to `ctx`.
    pub fn point_ctx(
        &mut self,
        name: &'static str,
        ctx: TraceContext,
        at_micros: u64,
        fields: Vec<(&'static str, Field)>,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            at_micros,
            dur_micros: None,
            name,
            ctx: ctx.is_attributed().then_some(ctx),
            fields,
        });
    }

    /// Appends pre-built events (e.g. drained from the transport fabric),
    /// in order, through the same enabled gate and ring bound.
    pub fn extend(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        if !self.enabled {
            return;
        }
        for event in events {
            self.push(event);
        }
    }

    /// The events recorded so far, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drains and returns the recorded events (e.g. to merge per-shard
    /// traces in shard order).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one event as a single JSON object with a **stable key order**:
/// `t`, then `span`+`dur_us` or `event`, then (when attributed) the
/// causal triple `trace`/`sid`/`pid`, then each field in recording
/// order. One canonical byte representation per event; context-free
/// events render exactly as they did before causal tracing existed.
pub fn render_event(event: &TraceEvent) -> String {
    let mut out = String::with_capacity(64);
    let _ = write!(out, "{{\"t\":{}", event.at_micros);
    match event.dur_micros {
        Some(dur) => {
            out.push_str(",\"span\":\"");
            escape_into(&mut out, event.name);
            let _ = write!(out, "\",\"dur_us\":{dur}");
        }
        None => {
            out.push_str(",\"event\":\"");
            escape_into(&mut out, event.name);
            out.push('"');
        }
    }
    if let Some(ctx) = &event.ctx {
        let _ = write!(
            out,
            ",\"trace\":{},\"sid\":{},\"pid\":{}",
            ctx.trace_id, ctx.span_id, ctx.parent_id
        );
    }
    for (key, value) in &event.fields {
        out.push_str(",\"");
        escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            Field::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Field::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Field::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Field::Str(v) => {
                out.push('"');
                escape_into(&mut out, v);
                out.push('"');
            }
        }
    }
    out.push('}');
    out
}

/// Renders an event list as JSONL — one object per line, trailing newline
/// after every line. Equal event lists render to equal bytes.
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&render_event(event));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 0, 10, vec![]);
        t.point("y", 5, vec![("k", Field::U64(1))]);
        let root = t.mint_root();
        t.span_ctx("z", root, 0, 1, vec![]);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
        assert_eq!(root, TraceContext::UNATTRIBUTED);
    }

    #[test]
    fn spans_and_points_render_with_stable_key_order() {
        let mut t = Tracer::new(true);
        t.span(
            "session.register",
            100,
            350,
            vec![("payment", Field::U64(7)), ("ok", Field::Bool(true))],
        );
        t.point("engine.batch", 400, vec![("size", 8usize.into())]);
        let jsonl = render_jsonl(t.events());
        assert_eq!(
            jsonl,
            "{\"t\":100,\"span\":\"session.register\",\"dur_us\":250,\"payment\":7,\"ok\":true}\n\
             {\"t\":400,\"event\":\"engine.batch\",\"size\":8}\n"
        );
    }

    #[test]
    fn attributed_events_render_the_causal_triple() {
        let mut t = Tracer::with_seed(true, 9);
        let root = t.mint_root();
        let child = t.child_of(&root);
        t.span_ctx(
            "session.payment",
            root,
            10,
            90,
            vec![("payment", 1u64.into())],
        );
        t.point_ctx("session.broadcast", child, 40, vec![]);
        let jsonl = render_jsonl(t.events());
        let expected = format!(
            "{{\"t\":10,\"span\":\"session.payment\",\"dur_us\":80,\"trace\":{tid},\"sid\":{tid},\"pid\":0,\"payment\":1}}\n\
             {{\"t\":40,\"event\":\"session.broadcast\",\"trace\":{tid},\"sid\":{sid},\"pid\":{tid}}}\n",
            tid = root.trace_id,
            sid = child.span_id,
        );
        assert_eq!(jsonl, expected);
    }

    #[test]
    fn id_minting_is_a_pure_function_of_the_seed() {
        let mut a = Tracer::with_seed(true, 0xFEED);
        let mut b = Tracer::with_seed(true, 0xFEED);
        for _ in 0..10 {
            let ra = a.mint_root();
            let rb = b.mint_root();
            assert_eq!(ra, rb);
            assert_eq!(a.child_of(&ra), b.child_of(&rb));
            assert!(ra.is_attributed());
        }
        let mut c = Tracer::with_seed(true, 0xFEED + 1);
        assert_ne!(a.mint_root(), c.mint_root());
    }

    #[test]
    fn child_of_an_unattributed_parent_stays_unattributed() {
        let mut t = Tracer::with_seed(true, 3);
        let child = t.child_of(&TraceContext::UNATTRIBUTED);
        assert_eq!(child, TraceContext::UNATTRIBUTED);
        // Recording with it produces the context-free form.
        t.point_ctx("x", child, 5, vec![]);
        assert!(t.events()[0].ctx.is_none());
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let mut t = Tracer::new(true);
        t.set_capacity(8);
        for i in 0..20u64 {
            t.point("tick", i, vec![]);
        }
        assert!(t.events().len() <= 8, "len {}", t.events().len());
        assert!(t.dropped_events() > 0);
        assert_eq!(
            t.dropped_events() + t.events().len() as u64,
            20,
            "every event is either retained or counted dropped"
        );
        // The retained suffix is the most recent events, still in order.
        let times: Vec<u64> = t.events().iter().map(|e| e.at_micros).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*times.last().unwrap(), 19);
    }

    #[test]
    fn extend_merges_prebuilt_events_through_the_ring() {
        let mut t = Tracer::new(true);
        t.set_capacity(4);
        let batch: Vec<TraceEvent> = (0..6u64)
            .map(|i| TraceEvent {
                at_micros: i,
                dur_micros: None,
                name: "transport.retransmit",
                ctx: None,
                fields: vec![],
            })
            .collect();
        t.extend(batch);
        assert!(t.events().len() <= 4);
        assert!(t.dropped_events() > 0);

        let mut off = Tracer::new(false);
        off.extend(vec![TraceEvent {
            at_micros: 0,
            dur_micros: None,
            name: "x",
            ctx: None,
            fields: vec![],
        }]);
        assert!(off.events().is_empty());
    }

    #[test]
    fn rendering_is_deterministic_and_escapes_strings() {
        let mut t = Tracer::new(true);
        t.point(
            "note",
            1,
            vec![("msg", Field::Str("a\"b\\c\nd".to_string()))],
        );
        let once = render_jsonl(t.events());
        let twice = render_jsonl(t.events());
        assert_eq!(once, twice);
        assert_eq!(
            once,
            "{\"t\":1,\"event\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\"}\n"
        );
    }

    #[test]
    fn reversed_span_saturates_to_zero_duration() {
        let mut t = Tracer::new(true);
        t.span("odd", 50, 20, vec![]);
        assert_eq!(t.events()[0].dur_micros, Some(0));
    }

    #[test]
    fn take_drains_for_merging() {
        let mut t = Tracer::new(true);
        t.point("a", 1, vec![]);
        let drained = t.take();
        assert_eq!(drained.len(), 1);
        assert!(t.events().is_empty());
    }
}
