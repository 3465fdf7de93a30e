//! Reliable at-least-once delivery on top of [`Network`] + [`Scheduler`].
//!
//! [`Network::send`] is fire-and-forget: a lost or partitioned message
//! simply vanishes. Protocol phases that must complete (offer delivery,
//! dispute evidence, judge calls) need retransmission. [`Transport`]
//! layers that on:
//!
//! * every send is acknowledged by the receiver; unacked sends are
//!   retransmitted after a timeout with exponential backoff and seeded
//!   jitter, up to a bounded attempt budget;
//! * receivers deduplicate retransmissions by message id, so the
//!   application sees each payload at most once per node incarnation;
//! * acks travel through the same lossy fabric as data;
//! * a node can be bounced ([`Transport::bounce`]): it crashes and
//!   restarts at one instant, losing its dedup memory;
//! * everything runs on simulated time from one seeded RNG, so a run is
//!   a pure function of `(seed, fault schedule, send sequence)`: two runs
//!   with identical inputs give identical statuses, inboxes and
//!   [`TransportStats`].
//!
//! Sends submitted via [`Transport::send_traced`] additionally carry the
//! sender's [`TraceContext`]: retransmissions, backoff waits, dedup drops,
//! and give-ups are then recorded as structured obs events attributed to
//! the payment that caused them (drained with
//! [`Transport::take_trace_events`]). An unattributed context is an
//! untraced send — delivery, ack, and dedup semantics are identical
//! either way.

use crate::network::{Network, NodeId};
use crate::scheduler::Scheduler;
use crate::time::SimTime;
use btcfast_obs::{Field, TraceContext, TraceEvent};
use rand::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies one logical message across all of its retransmissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Wait before the first retransmission, seconds.
const ACK_TIMEOUT_SECS: f64 = 0.2;
/// Multiplier applied to the timeout after each unacked attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the backoff interval, seconds.
const MAX_BACKOFF_SECS: f64 = 5.0;
/// Symmetric jitter applied to each backoff interval, as a fraction (±10%),
/// drawn from the transport's seed.
const JITTER_FRAC: f64 = 0.1;
/// Per-node cap on receiver-side dedup memory. Past it the oldest (lowest)
/// ids are evicted, and a retransmission of an evicted id is delivered
/// again: the at-least-once price of bounded dedup state.
const DEDUP_CAPACITY: usize = 4096;
/// Resolved (delivered or failed) send statuses kept for
/// [`Transport::status`]; older ones are retired.
const RESOLVED_RETENTION: usize = 1024;

/// Retransmission policy.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Total send attempts per message (first try included).
    pub max_attempts: u32,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig { max_attempts: 6 }
    }
}

/// Lifecycle of one logical message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStatus {
    /// Not yet acknowledged; retransmissions may still be in flight.
    Pending,
    /// The sender saw an ack.
    Delivered {
        /// When the ack reached the sender.
        at: SimTime,
        /// Attempts made before the ack arrived.
        attempts: u32,
    },
    /// The attempt budget ran out without an ack.
    Failed {
        /// Attempts made (equals the configured budget).
        attempts: u32,
    },
}

/// Aggregate counters for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Logical messages submitted.
    pub sent: u64,
    /// Physical transmissions beyond each message's first.
    pub retransmissions: u64,
    /// Logical messages acknowledged to their sender.
    pub delivered: u64,
    /// Logical messages that exhausted their attempt budget.
    pub failed: u64,
    /// Redundant deliveries suppressed by receiver-side dedup.
    pub duplicates_dropped: u64,
    /// Total simulated time spent waiting in retransmission backoff, in
    /// microseconds: the sum of the backoff intervals that actually
    /// elapsed before a retransmission fired. Saturating.
    pub backoff_wait_micros: u64,
    /// Largest per-node dedup set observed over the run (high-water mark).
    pub dedup_high_water: u64,
    /// Most unresolved sends outstanding at once (high-water mark for the
    /// retransmit queue).
    pub pending_high_water: u64,
    /// Dedup entries evicted by the per-node capacity bound.
    pub dedup_evictions: u64,
    /// Resolved send statuses retired by the retention bound.
    pub resolved_retired: u64,
}

impl TransportStats {
    /// Every counter under its exported name, in one fixed order: the keys
    /// of the `transport.stats` trace point, and the metric names after
    /// their `btcfast_transport_` prefix.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("sent", self.sent),
            ("retransmissions", self.retransmissions),
            ("delivered", self.delivered),
            ("failed", self.failed),
            ("dedup_drops", self.duplicates_dropped),
            ("backoff_wait_us", self.backoff_wait_micros),
            ("dedup_high_water", self.dedup_high_water),
            ("pending_high_water", self.pending_high_water),
            ("dedup_evictions", self.dedup_evictions),
            ("resolved_retired", self.resolved_retired),
        ]
    }
}

#[derive(Debug)]
enum Event {
    /// (Re)transmit the message if it is still unacknowledged.
    Attempt { id: MsgId },
    /// A physical copy arrives at the receiver.
    Deliver { id: MsgId, attempt: u32 },
    /// The receiver's ack arrives back at the sender.
    AckDeliver { id: MsgId, attempt: u32 },
}

/// Causal attribution carried by a traced send: the sender's context,
/// plus enough clock state to stamp obs events on the *sender's* session
/// clock (the transport's own clock starts at zero and is unrelated).
#[derive(Clone, Copy, Debug)]
struct ObsAttribution {
    ctx: TraceContext,
    /// Sender session-clock µs at the moment of the send.
    base_micros: u64,
    /// Transport clock at the moment of the send.
    sent_at: SimTime,
    /// Child-span salt: bumped per obs event so every event this send
    /// produces gets a distinct deterministic span id.
    minted: u64,
}

/// An unresolved send: [`SendStatus::Pending`] by being in the map.
#[derive(Clone, Debug)]
struct PendingSend<M> {
    from: NodeId,
    to: NodeId,
    payload: M,
    attempts_made: u32,
    /// The backoff interval scheduled after the latest attempt; charged
    /// to `TransportStats::backoff_wait_micros` if that timer fires.
    last_backoff: SimTime,
    /// Present iff the send carried an attributed context.
    obs: Option<ObsAttribution>,
}

/// Reliable transport over a lossy [`Network`]. See the module docs.
pub struct Transport<M: Clone> {
    network: Network,
    config: TransportConfig,
    scheduler: Scheduler<Event>,
    rng: StdRng,
    next_id: u64,
    /// Unresolved sends only; resolution moves the status to `resolved`
    /// and drops the payload, so this map is bounded by the number of
    /// messages genuinely in flight.
    pending: BTreeMap<MsgId, PendingSend<M>>,
    /// Bounded history of resolved send statuses ([`RESOLVED_RETENTION`]).
    resolved: BTreeMap<MsgId, SendStatus>,
    /// Per-node ids already delivered to the application (dedup memory).
    seen: BTreeMap<NodeId, BTreeSet<MsgId>>,
    /// Per-node delivered payloads awaiting pickup.
    inboxes: BTreeMap<NodeId, Vec<(SimTime, M)>>,
    stats: TransportStats,
    /// Structured obs events from traced sends, in scheduler order,
    /// stamped on the senders' session clocks.
    obs_events: Vec<TraceEvent>,
}

impl<M: Clone> Transport<M> {
    /// Wraps a network fabric; all randomness derives from `seed`.
    pub fn new(network: Network, config: TransportConfig, seed: u64) -> Transport<M> {
        Transport {
            network,
            config,
            scheduler: Scheduler::new(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            pending: BTreeMap::new(),
            resolved: BTreeMap::new(),
            seen: BTreeMap::new(),
            inboxes: BTreeMap::new(),
            stats: TransportStats::default(),
            obs_events: Vec::new(),
        }
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Mutable fabric access (loss, partitions) — used by fault plans.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Bounces `node`: it crashes and restarts at this instant, so its
    /// dedup memory is lost and a retransmission of a message it already
    /// delivered is delivered again — the price of at-least-once.
    pub fn bounce(&mut self, node: NodeId) {
        self.seen.remove(&node);
    }

    /// Queues a reliable send; the message starts transmitting at the
    /// current simulated time. Returns the id to poll via [`Self::status`].
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) -> MsgId {
        self.send_traced(from, to, payload, TraceContext::UNATTRIBUTED, 0)
    }

    /// Like [`Self::send`], attributing the send's obs events to `ctx`.
    /// `obs_base_micros` is the sender's session-clock µs at this moment,
    /// so emitted obs events land directly on the session timeline. An
    /// unattributed `ctx` is an untraced send.
    pub fn send_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        ctx: TraceContext,
        obs_base_micros: u64,
    ) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let obs = ctx.is_attributed().then(|| ObsAttribution {
            ctx,
            base_micros: obs_base_micros,
            sent_at: self.now(),
            minted: 0,
        });
        self.pending.insert(
            id,
            PendingSend {
                from,
                to,
                payload,
                attempts_made: 0,
                last_backoff: SimTime::ZERO,
                obs,
            },
        );
        self.stats.sent += 1;
        self.stats.pending_high_water =
            self.stats.pending_high_water.max(self.pending.len() as u64);
        self.scheduler
            .schedule_in(SimTime::ZERO, Event::Attempt { id });
        id
    }

    /// Drains the structured obs events produced by traced sends so far,
    /// in deterministic scheduler order. Callers merge these into their
    /// session tracer; untraced sends contribute nothing.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.obs_events)
    }

    /// Lifecycle of a message.
    ///
    /// # Panics
    ///
    /// Panics on an id this transport never issued, or one whose resolved
    /// status was retired (more than 1024 sends resolved after it).
    pub fn status(&self, id: MsgId) -> SendStatus {
        if self.pending.contains_key(&id) {
            return SendStatus::Pending;
        }
        // The documented precondition: ids come from `send` on this
        // transport only, and the drivers read a status right after driving
        // its send, long before 1024 later sends retire it.
        *self
            .resolved
            .get(&id)
            .expect("unknown or retired message id")
    }

    /// Moves a send out of the retransmit queue, recording its terminal
    /// status in the bounded resolved history. Late physical copies of a
    /// resolved message are dropped rather than delivered.
    fn resolve(&mut self, id: MsgId, status: SendStatus) {
        self.pending.remove(&id);
        self.resolved.insert(id, status);
        while self.resolved.len() > RESOLVED_RETENTION {
            self.resolved.pop_first();
            self.stats.resolved_retired += 1;
        }
    }

    /// Drains the payloads delivered to `node`, in arrival order.
    pub fn take_inbox(&mut self, node: NodeId) -> Vec<(SimTime, M)> {
        self.inboxes.remove(&node).unwrap_or_default()
    }

    /// Processes events until none remain (all sends resolved).
    pub fn run_until_idle(&mut self) {
        while let Some((time, event)) = self.scheduler.pop() {
            self.handle(time, event);
        }
    }

    /// Processes events up to and including `deadline`; later events stay
    /// queued. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut processed = 0;
        while self.scheduler.peek_time().is_some_and(|t| t <= deadline) {
            // Cannot fire: `peek_time` just returned this event's time.
            let (time, event) = self.scheduler.pop().expect("peeked event");
            self.handle(time, event);
            processed += 1;
        }
        processed
    }

    /// Time of the next queued event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.scheduler.peek_time()
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Attempt { id } => self.handle_attempt(now, id),
            Event::Deliver { id, attempt } => self.handle_deliver(now, id, attempt),
            Event::AckDeliver { id, attempt } => self.handle_ack(now, id, attempt),
        }
    }

    fn handle_attempt(&mut self, now: SimTime, id: MsgId) {
        let Some(entry) = self.pending.get_mut(&id) else {
            return;
        };
        if entry.attempts_made >= self.config.max_attempts {
            let attempts = entry.attempts_made;
            let fields = vec![("attempts", Field::U64(u64::from(attempts)))];
            let events = &mut self.obs_events;
            record_obs(events, entry, "transport.give_up", now, None, fields);
            self.resolve(id, SendStatus::Failed { attempts });
            self.stats.failed += 1;
            return;
        }
        entry.attempts_made += 1;
        let attempt = entry.attempts_made;
        if attempt > 1 {
            self.stats.retransmissions += 1;
            // This retransmission fired, so the whole previous backoff
            // interval was spent waiting.
            let waited = entry.last_backoff;
            self.stats.backoff_wait_micros = self
                .stats
                .backoff_wait_micros
                .saturating_add(waited.as_micros());
            let fields = || vec![("attempt", Field::U64(u64::from(attempt)))];
            let events = &mut self.obs_events;
            record_obs(events, entry, "transport.wait", now, Some(waited), fields());
            record_obs(events, entry, "transport.retransmit", now, None, fields());
        }
        if let Some(at) = self.network.send(entry.from, entry.to, now, &mut self.rng) {
            self.scheduler.schedule(at, Event::Deliver { id, attempt });
        }
        entry.last_backoff = backoff(&mut self.rng, attempt);
        self.scheduler
            .schedule(now + entry.last_backoff, Event::Attempt { id });
    }

    fn handle_deliver(&mut self, now: SimTime, id: MsgId, attempt: u32) {
        let Some(entry) = self.pending.get_mut(&id) else {
            return;
        };
        let (from, to) = (entry.from, entry.to);
        let seen = self.seen.entry(to).or_default();
        let first_delivery = seen.insert(id);
        self.stats.dedup_high_water = self.stats.dedup_high_water.max(seen.len() as u64);
        while seen.len() > DEDUP_CAPACITY {
            seen.pop_first();
            self.stats.dedup_evictions += 1;
        }
        if first_delivery {
            let payload = entry.payload.clone();
            self.inboxes.entry(to).or_default().push((now, payload));
        } else {
            self.stats.duplicates_dropped += 1;
            let events = &mut self.obs_events;
            record_obs(events, entry, "transport.dedup_drop", now, None, vec![]);
        }
        // Ack every copy (even duplicates) back through the lossy fabric.
        if let Some(at) = self.network.send(to, from, now, &mut self.rng) {
            self.scheduler
                .schedule(at, Event::AckDeliver { id, attempt });
        }
    }

    fn handle_ack(&mut self, now: SimTime, id: MsgId, attempt: u32) {
        // Acks for already-resolved sends find no pending entry: no-op.
        if !self.pending.contains_key(&id) {
            return;
        }
        self.resolve(
            id,
            SendStatus::Delivered {
                at: now,
                attempts: attempt,
            },
        );
        self.stats.delivered += 1;
    }
}

/// Records an obs event attributed to `entry`'s send, stamped on the
/// sender's session clock. A span covers the `dur` interval ending at
/// `now`; `None` records a point at `now`. No-op for untraced sends.
fn record_obs<M>(
    events: &mut Vec<TraceEvent>,
    entry: &mut PendingSend<M>,
    name: &'static str,
    now: SimTime,
    dur: Option<SimTime>,
    fields: Vec<(&'static str, Field)>,
) {
    let Some(obs) = entry.obs.as_mut() else {
        return;
    };
    let rel = now.as_micros().saturating_sub(obs.sent_at.as_micros());
    let end_micros = obs.base_micros.saturating_add(rel);
    let ctx = obs.ctx.derive_child(obs.minted);
    obs.minted += 1;
    let (at_micros, dur_micros) = match dur {
        Some(d) => {
            let start = end_micros.saturating_sub(d.as_micros());
            (start, Some(end_micros - start))
        }
        None => (end_micros, None),
    };
    events.push(TraceEvent {
        at_micros,
        dur_micros,
        name,
        ctx: Some(ctx),
        fields,
    });
}

/// Backoff before the retransmission that follows `attempt`, with
/// deterministic jitter drawn from `rng`.
fn backoff(rng: &mut StdRng, attempt: u32) -> SimTime {
    let base = ACK_TIMEOUT_SECS * BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32);
    let capped = base.min(MAX_BACKOFF_SECS);
    let u: f64 = rng.gen_range(0.0..1.0);
    SimTime::from_secs_f64(capped * (1.0 + JITTER_FRAC * (2.0 * u - 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;

    fn transport(loss: f64, seed: u64) -> Transport<&'static str> {
        let mut net = Network::new(2, LatencyModel::Constant { secs: 0.01 });
        net.set_loss_probability(loss);
        Transport::new(net, TransportConfig::default(), seed)
    }

    /// Delivers `id`'s first copy (sent at time zero on a clean fabric)
    /// and then drops the fabric, so the ack is lost; the fabric is clean
    /// again before the retransmission, which reaches the receiver.
    fn lose_first_ack(t: &mut Transport<&'static str>, id: MsgId) {
        t.run_until(SimTime::ZERO);
        t.network_mut().set_loss_probability(1.0);
        t.run_until(SimTime::from_millis(10));
        assert_eq!(t.status(id), SendStatus::Pending, "the ack was lost");
        t.network_mut().set_loss_probability(0.0);
    }

    /// Everything a run shows its caller: each send's status, the
    /// receiver's inbox and the counters.
    type Outcome = (
        Vec<SendStatus>,
        Vec<(SimTime, &'static str)>,
        TransportStats,
    );

    fn outcome(t: &mut Transport<&'static str>, ids: &[MsgId]) -> Outcome {
        let statuses = ids.iter().map(|&id| t.status(id)).collect();
        (statuses, t.take_inbox(NodeId(1)), t.stats())
    }

    #[test]
    fn clean_network_delivers_first_try() {
        let mut t = transport(0.0, 1);
        let id = t.send(NodeId(0), NodeId(1), "hello");
        t.run_until_idle();
        match t.status(id) {
            SendStatus::Delivered { attempts, at } => {
                assert_eq!(attempts, 1);
                // one data hop + one ack hop at 10 ms each
                assert_eq!(at, SimTime::from_millis(20));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let inbox = t.take_inbox(NodeId(1));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1, "hello");
        assert_eq!(t.stats().backoff_wait_micros, 0, "no retransmissions");
    }

    #[test]
    fn heavy_loss_recovers_via_retransmission() {
        let mut delivered = 0u32;
        for seed in 0..50 {
            let mut t = transport(0.5, seed);
            let id = t.send(NodeId(0), NodeId(1), "payload");
            t.run_until_idle();
            if matches!(t.status(id), SendStatus::Delivered { .. }) {
                delivered += 1;
            }
        }
        // 6 attempts at 50% data loss + 50% ack loss: ~83% of sends ack.
        assert!(delivered >= 35, "only {delivered}/50 delivered");
    }

    #[test]
    fn total_loss_exhausts_budget_with_failed_status() {
        let mut t = transport(1.0, 3);
        let id = t.send(NodeId(0), NodeId(1), "void");
        t.run_until_idle();
        assert_eq!(
            t.status(id),
            SendStatus::Failed {
                attempts: TransportConfig::default().max_attempts
            }
        );
        assert!(t.take_inbox(NodeId(1)).is_empty());
        assert_eq!(t.stats().failed, 1);
        // Five retransmissions each waited out a full backoff interval of
        // at least ack_timeout ± jitter.
        assert_eq!(t.stats().retransmissions, 5);
        assert!(
            t.stats().backoff_wait_micros >= 5 * 180_000,
            "backoff wait {}us too small",
            t.stats().backoff_wait_micros
        );
    }

    #[test]
    fn partition_blocks_then_heal_recovers() {
        let mut t = transport(0.0, 4);
        t.network_mut().partition(NodeId(0), NodeId(1));
        let id = t.send(NodeId(0), NodeId(1), "through");
        // Process the first couple of attempts while partitioned.
        t.run_until(SimTime::from_millis(500));
        assert_eq!(t.status(id), SendStatus::Pending);
        t.network_mut().heal(NodeId(0), NodeId(1));
        t.run_until_idle();
        assert!(matches!(t.status(id), SendStatus::Delivered { .. }));
    }

    #[test]
    fn duplicates_are_deduped_exactly_once() {
        let mut t = transport(0.0, 5);
        let id = t.send(NodeId(0), NodeId(1), "twice");
        lose_first_ack(&mut t, id);
        t.run_until_idle();
        assert!(matches!(
            t.status(id),
            SendStatus::Delivered { attempts: 2, .. }
        ));
        assert_eq!(t.take_inbox(NodeId(1)).len(), 1, "app sees one copy");
        assert_eq!(t.stats().duplicates_dropped, 1);
    }

    #[test]
    fn receiver_crash_drops_then_restart_redelivers() {
        let mut t = transport(0.0, 6);
        let id = t.send(NodeId(0), NodeId(1), "wake up");
        lose_first_ack(&mut t, id);
        // The bounce forgets the delivery, so the retransmission is new.
        t.bounce(NodeId(1));
        t.run_until_idle();
        assert!(matches!(t.status(id), SendStatus::Delivered { .. }));
        assert_eq!(t.take_inbox(NodeId(1)).len(), 2);
        assert_eq!(t.stats().duplicates_dropped, 0);
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed: u64| {
            let mut t = transport(0.3, seed);
            let ids: Vec<MsgId> = (0..5)
                .map(|i| t.send(NodeId(0), NodeId(1), if i % 2 == 0 { "a" } else { "b" }))
                .collect();
            t.run_until_idle();
            outcome(&mut t, &ids)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn dedup_memory_is_bounded_with_high_water_mark() {
        let mut t = transport(0.0, 11);
        let sends = DEDUP_CAPACITY + 4;
        for _ in 0..sends {
            t.send(NodeId(0), NodeId(1), "x");
            t.run_until_idle();
        }
        let stats = t.stats();
        assert_eq!(stats.delivered, sends as u64);
        assert_eq!(stats.dedup_high_water, DEDUP_CAPACITY as u64 + 1);
        assert_eq!(stats.dedup_evictions, 4);
        assert_eq!(
            t.take_inbox(NodeId(1)).len(),
            sends,
            "every payload arrives once"
        );
    }

    #[test]
    fn resolved_statuses_are_retained_then_retired() {
        let mut t = transport(0.0, 12);
        let ids: Vec<MsgId> = (0..RESOLVED_RETENTION + 3)
            .map(|_| t.send(NodeId(0), NodeId(1), "x"))
            .collect();
        t.run_until_idle();
        // The youngest resolved statuses are queryable ...
        for &id in &ids[3..] {
            assert!(matches!(t.status(id), SendStatus::Delivered { .. }));
        }
        assert_eq!(t.stats().resolved_retired, 3);
        // ... and the retransmit queue itself is drained.
        assert_eq!(t.stats().pending_high_water, ids.len() as u64);
    }

    #[test]
    #[should_panic(expected = "unknown or retired")]
    fn querying_a_retired_status_panics() {
        let mut t = transport(0.0, 13);
        let first = t.send(NodeId(0), NodeId(1), "x");
        for _ in 0..RESOLVED_RETENTION {
            t.send(NodeId(0), NodeId(1), "y");
        }
        t.run_until_idle();
        t.status(first);
    }

    #[test]
    fn traced_sends_attribute_retransmissions_to_the_context() {
        let ctx = TraceContext {
            trace_id: 0xABCD,
            span_id: 0x1234,
            parent_id: 0xABCD,
        };
        let mut t = transport(1.0, 21);
        let base = 5_000_000u64;
        t.send_traced(NodeId(0), NodeId(1), "doomed", ctx, base);
        t.run_until_idle();
        let events = t.take_trace_events();
        // 5 retransmissions → 5 wait spans + 5 retransmit points, then a
        // give-up point. Every event is a distinct child of `ctx`.
        assert_eq!(
            events.iter().filter(|e| e.name == "transport.wait").count(),
            5
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "transport.retransmit")
                .count(),
            5
        );
        assert_eq!(events.last().map(|e| e.name), Some("transport.give_up"));
        let mut span_ids = BTreeSet::new();
        for event in &events {
            let child = event.ctx.expect("attributed");
            assert_eq!(child.trace_id, ctx.trace_id);
            assert_eq!(child.parent_id, ctx.span_id);
            assert!(span_ids.insert(child.span_id), "span ids must be unique");
            assert!(event.at_micros >= base, "stamped on the session clock");
        }
        // Wait spans account for the same time the stats counter charged.
        let wait_total: u64 = events
            .iter()
            .filter(|e| e.name == "transport.wait")
            .map(|e| e.dur_micros.unwrap_or(0))
            .sum();
        assert_eq!(wait_total, t.stats().backoff_wait_micros);
        assert!(t.take_trace_events().is_empty(), "take drains");
    }

    #[test]
    fn dedup_drops_are_attributed() {
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
            parent_id: 7,
        };
        let mut t = transport(0.0, 22);
        let id = t.send_traced(NodeId(0), NodeId(1), "twice", ctx, 100);
        lose_first_ack(&mut t, id);
        t.run_until_idle();
        let events = t.take_trace_events();
        assert!(events.iter().any(|e| e.name == "transport.dedup_drop"));
        assert!(events
            .iter()
            .all(|e| e.ctx.is_some_and(|c| c.trace_id == 7 && c.parent_id == 9)));
    }

    #[test]
    fn untraced_sends_emit_no_obs_events_and_identical_traces() {
        let ctx = TraceContext {
            trace_id: 11,
            span_id: 12,
            parent_id: 11,
        };
        let run = |traced: Option<TraceContext>| {
            let mut t = transport(0.4, 24);
            let ids: Vec<MsgId> = (0..4)
                .map(|_| match traced {
                    Some(ctx) => t.send_traced(NodeId(0), NodeId(1), "p", ctx, 0),
                    None => t.send(NodeId(0), NodeId(1), "p"),
                })
                .collect();
            t.run_until_idle();
            let events = t.take_trace_events();
            (outcome(&mut t, &ids), events)
        };
        let (outcome_plain, events_plain) = run(None);
        let (outcome_traced, events_traced) = run(Some(ctx));
        let stats_traced = outcome_traced.2;
        // Attribution is purely observational: same rng draws, same
        // delivery schedule, same counters.
        assert_eq!(outcome_plain, outcome_traced);
        assert!(events_plain.is_empty());
        // An explicitly unattributed context is an untraced send.
        let unattributed = run(Some(TraceContext::UNATTRIBUTED));
        assert_eq!(unattributed, (outcome_plain, events_plain));
        assert_eq!(
            events_traced.is_empty(),
            stats_traced.retransmissions == 0 && stats_traced.duplicates_dropped == 0
        );
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 1..=10 {
            let nominal = (0.2 * 2f64.powi(attempt - 1)).min(5.0);
            let wait = backoff(&mut rng, attempt as u32).as_secs_f64();
            assert!(
                (wait - nominal).abs() <= nominal * JITTER_FRAC + 1e-6,
                "attempt {attempt}: {wait} s against {nominal} s"
            );
        }
    }
}
