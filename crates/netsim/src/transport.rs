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
//! * nodes can crash (in-flight deliveries to them are dropped, and
//!   their dedup memory is lost) and restart;
//! * everything runs on simulated time from one seeded RNG, so a run is
//!   a pure function of `(seed, fault schedule, send sequence)`.
//!
//! The transport records a human-readable event trace; two runs with
//! identical inputs produce byte-identical traces, which the chaos
//! harness asserts.
//!
//! Sends submitted via [`Transport::send_traced`] additionally carry a
//! serialized [`TraceContext`] in their frame: retransmissions, backoff
//! waits, dedup drops, and give-ups are then recorded as structured obs
//! events attributed to the payment that caused them (drained with
//! [`Transport::take_trace_events`]). A corrupt wire context degrades to
//! unattributed — delivery, ack, and dedup semantics are identical
//! either way.

use crate::network::{Network, NodeId};
use crate::scheduler::Scheduler;
use crate::time::SimTime;
use btcfast_obs::{Field, TraceContext, TraceEvent};
use rand::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifies one logical message across all of its retransmissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg{}", self.0)
    }
}

/// Wait before the first retransmission, seconds.
const ACK_TIMEOUT_SECS: f64 = 0.2;
/// Multiplier applied to the timeout after each unacked attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the backoff interval, seconds.
const MAX_BACKOFF_SECS: f64 = 5.0;

/// Retransmission policy. The attempt budget is what harnesses vary; the
/// other three are set by this file's unit tests only, and say why.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Total send attempts per message (first try included).
    pub max_attempts: u32,
    /// Symmetric jitter applied to each backoff interval, as a fraction
    /// (0.1 means ±10%). Deterministic: drawn from the transport's seed.
    /// Every harness runs 0.1; the backoff test sets 0 to read the exact
    /// exponential schedule and its cap.
    pub jitter_frac: f64,
    /// Per-node cap on receiver-side dedup memory. When a node has seen
    /// more message ids than this, the oldest (lowest) ids are evicted —
    /// a retransmission of an evicted id would then be re-delivered, the
    /// standard at-least-once trade-off of bounded dedup state. Every
    /// harness runs 4096; the eviction test reaches that path with 3.
    pub dedup_capacity: usize,
    /// How many *resolved* (delivered or failed) send statuses to retain
    /// for [`Transport::status`] queries. Older resolved entries are
    /// retired; querying a retired id panics. Every harness runs 1024; the
    /// retirement tests reach that path with 1 and 2.
    pub resolved_retention: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            max_attempts: 6,
            jitter_frac: 0.1,
            dedup_capacity: 4096,
            resolved_retention: 1024,
        }
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

#[derive(Debug)]
enum Event {
    /// (Re)transmit the message if it is still unacknowledged.
    Attempt { id: MsgId },
    /// A physical copy arrives at the receiver.
    Deliver { id: MsgId, attempt: u32 },
    /// The receiver's ack arrives back at the sender.
    AckDeliver { id: MsgId, attempt: u32 },
}

/// Causal attribution carried by a traced send: the decoded context,
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

#[derive(Clone, Debug)]
struct PendingSend<M> {
    from: NodeId,
    to: NodeId,
    payload: M,
    attempts_made: u32,
    status: SendStatus,
    /// The backoff interval scheduled after the latest attempt; charged
    /// to `TransportStats::backoff_wait_micros` if that timer fires.
    last_backoff: SimTime,
    /// Present iff the send carried a wire context that decoded cleanly.
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
    /// Bounded history of resolved send statuses (see
    /// [`TransportConfig::resolved_retention`]).
    resolved: BTreeMap<MsgId, SendStatus>,
    /// Per-node ids already delivered to the application (dedup memory).
    seen: BTreeMap<NodeId, BTreeSet<MsgId>>,
    /// Per-node delivered payloads awaiting pickup.
    inboxes: BTreeMap<NodeId, Vec<(SimTime, M)>>,
    crashed: BTreeSet<NodeId>,
    /// Probability that a successful transmission is delivered twice
    /// (models duplicating middleboxes; exercises dedup).
    duplicate_probability: f64,
    stats: TransportStats,
    trace: Vec<String>,
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
            crashed: BTreeSet::new(),
            duplicate_probability: 0.0,
            stats: TransportStats::default(),
            trace: Vec::new(),
            obs_events: Vec::new(),
        }
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// The underlying fabric (for inspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable fabric access (loss, partitions) — used by fault plans.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// The deterministic event trace so far.
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Sets the probability that a delivered transmission arrives twice.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        // A precondition, not input: the one caller applies a fault plan's
        // `SetDuplication`, whose `p` the harness author wrote.
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
    }

    /// Takes a node down: in-flight deliveries to it are dropped and its
    /// dedup memory is erased (state loss), so post-restart
    /// retransmissions may be re-delivered — the price of at-least-once.
    pub fn crash(&mut self, node: NodeId) {
        if self.crashed.insert(node) {
            self.seen.remove(&node);
            self.push_trace(format_args!("crash {node:?}"));
        }
    }

    /// Brings a crashed node back.
    pub fn restart(&mut self, node: NodeId) {
        if self.crashed.remove(&node) {
            self.push_trace(format_args!("restart {node:?}"));
        }
    }

    /// Queues a reliable send; the message starts transmitting at the
    /// current simulated time. Returns the id to poll via [`Self::status`].
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) -> MsgId {
        self.send_traced(from, to, payload, &[], 0)
    }

    /// Like [`Self::send`], with a serialized [`TraceContext`] carried in
    /// the frame. `ctx_wire` is the output of [`TraceContext::to_wire`];
    /// `obs_base_micros` is the sender's session-clock µs at this moment,
    /// so emitted obs events land directly on the session timeline. A
    /// wire context that fails to decode (wrong length, bad version, bad
    /// checksum — including an empty slice) degrades to an untraced send
    /// with identical delivery semantics; it never panics.
    pub fn send_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        ctx_wire: &[u8],
        obs_base_micros: u64,
    ) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let obs = TraceContext::from_wire(ctx_wire).map(|ctx| ObsAttribution {
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
                status: SendStatus::Pending,
                last_backoff: SimTime::ZERO,
                obs,
            },
        );
        self.stats.sent += 1;
        self.stats.pending_high_water =
            self.stats.pending_high_water.max(self.pending.len() as u64);
        self.scheduler
            .schedule_in(SimTime::ZERO, Event::Attempt { id });
        self.push_trace(format_args!("send {id} {from:?}->{to:?}"));
        id
    }

    /// Drains the structured obs events produced by traced sends so far,
    /// in deterministic scheduler order. Callers merge these into their
    /// session tracer; untraced sends contribute nothing.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.obs_events)
    }

    /// Records an obs event attributed to `id`'s send, stamped on the
    /// sender's session clock. A span covers the `dur` interval ending at
    /// `now`; `None` records a point at `now`. No-op for untraced sends.
    fn record_obs(
        &mut self,
        id: MsgId,
        name: &'static str,
        now: SimTime,
        dur: Option<SimTime>,
        fields: Vec<(&'static str, Field)>,
    ) {
        let Some(obs) = self.pending.get_mut(&id).and_then(|e| e.obs.as_mut()) else {
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
        self.obs_events.push(TraceEvent {
            at_micros,
            dur_micros,
            name,
            ctx: Some(ctx),
            fields,
        });
    }

    /// Lifecycle of a message.
    ///
    /// # Panics
    ///
    /// Panics on an id this transport never issued, or one whose resolved
    /// status was retired by [`TransportConfig::resolved_retention`].
    pub fn status(&self, id: MsgId) -> SendStatus {
        if let Some(entry) = self.pending.get(&id) {
            return entry.status;
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
        while self.resolved.len() > self.config.resolved_retention.max(1) {
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
        let Some(entry) = self.pending.get(&id) else {
            return;
        };
        if entry.status != SendStatus::Pending {
            return;
        }
        let (from, to) = (entry.from, entry.to);
        if entry.attempts_made >= self.config.max_attempts {
            let attempts = entry.attempts_made;
            self.record_obs(
                id,
                "transport.give_up",
                now,
                None,
                vec![("attempts", Field::U64(u64::from(attempts)))],
            );
            self.resolve(id, SendStatus::Failed { attempts });
            self.stats.failed += 1;
            self.push_trace(format_args!(
                "give-up {id} {from:?}->{to:?} after {attempts} attempts"
            ));
            return;
        }
        let attempt = entry.attempts_made + 1;
        let waited = entry.last_backoff;
        // Cannot fire: the entry was read at the top of this handler and
        // only `resolve` (which returned above) removes one.
        self.pending
            .get_mut(&id)
            .expect("entry exists")
            .attempts_made = attempt;
        if attempt > 1 {
            self.stats.retransmissions += 1;
            // This retransmission fired, so the whole previous backoff
            // interval was spent waiting.
            self.stats.backoff_wait_micros = self
                .stats
                .backoff_wait_micros
                .saturating_add(waited.as_micros());
            self.record_obs(
                id,
                "transport.wait",
                now,
                Some(waited),
                vec![("attempt", Field::U64(u64::from(attempt)))],
            );
            self.record_obs(
                id,
                "transport.retransmit",
                now,
                None,
                vec![("attempt", Field::U64(u64::from(attempt)))],
            );
        }
        // A crashed sender cannot transmit, but its timer keeps running:
        // when it restarts within the budget, retransmission resumes.
        if self.crashed.contains(&from) {
            self.push_trace(format_args!("attempt {id} try{attempt} sender-down"));
        } else {
            let copies = if self.duplicate_probability > 0.0
                && self.rng.gen_bool(self.duplicate_probability)
            {
                2
            } else {
                1
            };
            let mut delivered_any = false;
            for _ in 0..copies {
                if let Some(delivery) = self.network.send(from, to, (), now, &mut self.rng) {
                    self.scheduler
                        .schedule(delivery.at, Event::Deliver { id, attempt });
                    delivered_any = true;
                }
            }
            self.push_trace(format_args!(
                "attempt {id} try{attempt} {}",
                if delivered_any { "in-flight" } else { "lost" }
            ));
        }
        let wait = self.backoff(attempt);
        // Cannot fire: as above, nothing since the top removed the entry.
        self.pending
            .get_mut(&id)
            .expect("entry exists")
            .last_backoff = wait;
        self.scheduler.schedule(now + wait, Event::Attempt { id });
    }

    fn handle_deliver(&mut self, now: SimTime, id: MsgId, attempt: u32) {
        let Some(entry) = self.pending.get(&id) else {
            return;
        };
        let (from, to) = (entry.from, entry.to);
        if self.crashed.contains(&to) {
            self.push_trace(format_args!("drop {id} receiver-down"));
            return;
        }
        let dedup_capacity = self.config.dedup_capacity.max(1);
        let seen = self.seen.entry(to).or_default();
        let first_delivery = seen.insert(id);
        self.stats.dedup_high_water = self.stats.dedup_high_water.max(seen.len() as u64);
        while seen.len() > dedup_capacity {
            seen.pop_first();
            self.stats.dedup_evictions += 1;
        }
        if first_delivery {
            // Cannot fire: the entry was read at the top of this handler
            // and nothing in between removes one.
            let payload = self.pending.get(&id).expect("entry exists").payload.clone();
            self.inboxes.entry(to).or_default().push((now, payload));
            self.push_trace(format_args!("deliver {id} at {to:?}"));
        } else {
            self.stats.duplicates_dropped += 1;
            self.record_obs(id, "transport.dedup_drop", now, None, vec![]);
            self.push_trace(format_args!("dedup {id} at {to:?}"));
        }
        // Ack every copy (even duplicates) back through the lossy fabric.
        if let Some(ack) = self.network.send(to, from, (), now, &mut self.rng) {
            self.scheduler
                .schedule(ack.at, Event::AckDeliver { id, attempt });
        } else {
            self.push_trace(format_args!("ack-lost {id}"));
        }
    }

    fn handle_ack(&mut self, now: SimTime, id: MsgId, attempt: u32) {
        // Acks for already-resolved sends find no pending entry: no-op.
        let Some(entry) = self.pending.get(&id) else {
            return;
        };
        if self.crashed.contains(&entry.from) {
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
        self.push_trace(format_args!("acked {id} try{attempt}"));
    }

    /// Backoff before the retransmission that follows `attempt`, with
    /// deterministic jitter.
    fn backoff(&mut self, attempt: u32) -> SimTime {
        let base = ACK_TIMEOUT_SECS * BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32);
        let capped = base.min(MAX_BACKOFF_SECS);
        let jitter = if self.config.jitter_frac > 0.0 {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            1.0 + self.config.jitter_frac * (2.0 * u - 1.0)
        } else {
            1.0
        };
        SimTime::from_secs_f64(capped * jitter)
    }

    fn push_trace(&mut self, line: fmt::Arguments<'_>) {
        self.trace
            .push(format!("[{:>12}us] {line}", self.now().as_micros()));
    }
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
        t.set_duplicate_probability(1.0);
        let id = t.send(NodeId(0), NodeId(1), "twice");
        t.run_until_idle();
        assert!(matches!(t.status(id), SendStatus::Delivered { .. }));
        assert_eq!(t.take_inbox(NodeId(1)).len(), 1, "app sees one copy");
        assert!(t.stats().duplicates_dropped >= 1);
    }

    #[test]
    fn receiver_crash_drops_then_restart_redelivers() {
        let mut t = transport(0.0, 6);
        t.crash(NodeId(1));
        let id = t.send(NodeId(0), NodeId(1), "wake up");
        t.run_until(SimTime::from_millis(150));
        assert_eq!(t.status(id), SendStatus::Pending);
        t.restart(NodeId(1));
        t.run_until_idle();
        assert!(matches!(t.status(id), SendStatus::Delivered { .. }));
        assert_eq!(t.take_inbox(NodeId(1)).len(), 1);
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let runs: Vec<Vec<String>> = (0..2)
            .map(|_| {
                let mut t = transport(0.3, 42);
                for i in 0..5 {
                    t.send(NodeId(0), NodeId(1), if i % 2 == 0 { "a" } else { "b" });
                }
                t.run_until_idle();
                t.trace().to_vec()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let mut other = transport(0.3, 43);
        other.send(NodeId(0), NodeId(1), "a");
        other.run_until_idle();
        assert_ne!(runs[0], other.trace().to_vec());
    }

    #[test]
    fn dedup_memory_is_bounded_with_high_water_mark() {
        let mut t = transport(0.0, 11);
        t.config.dedup_capacity = 3;
        for i in 0..8 {
            t.send(NodeId(0), NodeId(1), if i % 2 == 0 { "a" } else { "b" });
            t.run_until_idle();
        }
        let stats = t.stats();
        assert_eq!(stats.delivered, 8);
        assert!(
            stats.dedup_high_water <= 4,
            "dedup grew past capacity+1: {}",
            stats.dedup_high_water
        );
        assert!(
            stats.dedup_evictions >= 4,
            "evictions {}",
            stats.dedup_evictions
        );
        assert_eq!(
            t.take_inbox(NodeId(1)).len(),
            8,
            "every payload arrives once"
        );
    }

    #[test]
    fn resolved_statuses_are_retained_then_retired() {
        let mut t = transport(0.0, 12);
        t.config.resolved_retention = 2;
        let ids: Vec<MsgId> = (0..5).map(|_| t.send(NodeId(0), NodeId(1), "x")).collect();
        t.run_until_idle();
        // The two youngest resolved statuses are queryable ...
        assert!(matches!(t.status(ids[4]), SendStatus::Delivered { .. }));
        assert!(matches!(t.status(ids[3]), SendStatus::Delivered { .. }));
        assert_eq!(t.stats().resolved_retired, 3);
        // ... and the retransmit queue itself is drained.
        assert!(t.stats().pending_high_water >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown or retired")]
    fn querying_a_retired_status_panics() {
        let mut t = transport(0.0, 13);
        t.config.resolved_retention = 1;
        let first = t.send(NodeId(0), NodeId(1), "x");
        t.send(NodeId(0), NodeId(1), "y");
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
        t.send_traced(NodeId(0), NodeId(1), "doomed", &ctx.to_wire(), base);
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
        t.set_duplicate_probability(1.0);
        t.send_traced(NodeId(0), NodeId(1), "twice", &ctx.to_wire(), 100);
        t.run_until_idle();
        let events = t.take_trace_events();
        assert!(events.iter().any(|e| e.name == "transport.dedup_drop"));
        assert!(events
            .iter()
            .all(|e| e.ctx.is_some_and(|c| c.trace_id == 7 && c.parent_id == 9)));
    }

    #[test]
    fn corrupt_wire_contexts_degrade_to_unattributed_sends() {
        let ctx = TraceContext {
            trace_id: 3,
            span_id: 4,
            parent_id: 3,
        };
        let good = ctx.to_wire();
        // Flip one byte anywhere: checksum rejects, transport stays silent
        // but delivery semantics are unchanged vs the clean-context twin.
        for corrupt_at in 0..good.len() {
            let mut bad = good;
            bad[corrupt_at] ^= 0x40;
            let mut t = transport(1.0, 23);
            let id = t.send_traced(NodeId(0), NodeId(1), "x", &bad, 50);
            t.run_until_idle();
            assert!(t.take_trace_events().is_empty(), "byte {corrupt_at}");
            assert!(matches!(t.status(id), SendStatus::Failed { .. }));
            let mut clean = transport(1.0, 23);
            let clean_id = clean.send_traced(NodeId(0), NodeId(1), "x", &good, 50);
            clean.run_until_idle();
            assert_eq!(t.status(id), clean.status(clean_id));
            assert_eq!(t.trace(), clean.trace(), "event trace unaffected");
        }
    }

    #[test]
    fn untraced_sends_emit_no_obs_events_and_identical_traces() {
        let ctx = TraceContext {
            trace_id: 11,
            span_id: 12,
            parent_id: 11,
        };
        let run = |traced: bool| {
            let mut t = transport(0.4, 24);
            for _ in 0..4 {
                if traced {
                    t.send_traced(NodeId(0), NodeId(1), "p", &ctx.to_wire(), 0);
                } else {
                    t.send(NodeId(0), NodeId(1), "p");
                }
            }
            t.run_until_idle();
            let events = t.take_trace_events();
            (t.trace().to_vec(), t.stats(), events)
        };
        let (trace_plain, stats_plain, events_plain) = run(false);
        let (trace_traced, stats_traced, events_traced) = run(true);
        // Attribution is purely observational: same rng draws, same
        // delivery schedule, same counters.
        assert_eq!(trace_plain, trace_traced);
        assert_eq!(stats_plain, stats_traced);
        assert!(events_plain.is_empty());
        assert_eq!(
            events_traced.is_empty(),
            stats_traced.retransmissions == 0 && stats_traced.duplicates_dropped == 0
        );
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut t = transport(0.0, 7);
        t.config.jitter_frac = 0.0;
        let b1 = t.backoff(1).as_secs_f64();
        let b2 = t.backoff(2).as_secs_f64();
        let b9 = t.backoff(9).as_secs_f64();
        assert!((b1 - 0.2).abs() < 1e-9);
        assert!((b2 - 0.4).abs() < 1e-9);
        assert!((b9 - 5.0).abs() < 1e-9, "capped at max_backoff, got {b9}");
    }
}
