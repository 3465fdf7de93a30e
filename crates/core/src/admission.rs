//! Bounded admission control for the payment engine.
//!
//! An open-loop workload keeps arriving whether or not the merchant keeps
//! up; without a bound, the engine's queue — and every queued payment's
//! waiting time — grows without limit past the saturation knee. This
//! module is the backpressure layer: a capacity-bounded queue of payment
//! tickets with pluggable shedding policies, per-shard depth/high-water/
//! shed accounting, and a typed [`OverloadError`] so callers can tell a
//! load-shed apart from a protocol failure.
//!
//! Everything here is plain deterministic data: admission decisions are a
//! pure function of the offer/pop sequence, so the shed set can be hashed
//! into an engine run's replay fingerprint.

use btcfast_netsim::time::SimTime;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// What the queue does when admitting one more payment would exceed its
/// bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SheddingPolicy {
    /// Refuse the arriving payment; everything already queued keeps its
    /// place. Favors in-progress work (FIFO fairness over freshness).
    RejectNew,
    /// Admit the arriving payment and shed the globally oldest queued
    /// one. Favors freshness: under sustained overload the queue holds
    /// the newest work, so served payments see bounded staleness.
    DropOldest,
    /// Split the global capacity into equal per-shard quotas and refuse
    /// arrivals to any shard already at its quota. One hot shard can
    /// never starve the others' queue space.
    FairPerShard,
}

impl SheddingPolicy {
    /// Stable lowercase name (used in tables and trace fields).
    pub fn name(&self) -> &'static str {
        match self {
            SheddingPolicy::RejectNew => "reject-new",
            SheddingPolicy::DropOldest => "drop-oldest",
            SheddingPolicy::FairPerShard => "fair-per-shard",
        }
    }
}

impl fmt::Display for SheddingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission-control knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Total queued payments allowed across all shards. `usize::MAX`
    /// disables shedding (the unbounded baseline the benchmarks compare
    /// against).
    pub capacity: usize,
    /// What to do at the bound.
    pub policy: SheddingPolicy,
}

impl AdmissionConfig {
    /// A bounded queue with the given capacity and policy.
    pub fn bounded(capacity: usize, policy: SheddingPolicy) -> AdmissionConfig {
        AdmissionConfig { capacity, policy }
    }

    /// The unbounded baseline: nothing is ever shed.
    pub fn unbounded() -> AdmissionConfig {
        AdmissionConfig {
            capacity: usize::MAX,
            policy: SheddingPolicy::RejectNew,
        }
    }

    /// Whether this configuration can ever shed.
    pub fn is_bounded(&self) -> bool {
        self.capacity != usize::MAX
    }

    /// The configuration that, applied to each of `shards` shards on a
    /// queue of its own, makes exactly the decisions this one makes on
    /// one queue over all of them — or `None` when one shard's queue can
    /// change another's admission.
    ///
    /// Admission is shard-local in three cases:
    ///
    /// * `shards <= 1`: there is no other shard (the config is returned
    ///   unchanged);
    /// * unbounded, under any policy: nothing is ever refused or
    ///   displaced, so no decision reads another shard;
    /// * [`SheddingPolicy::FairPerShard`] with `capacity % shards == 0`:
    ///   each shard gets `FairPerShard` over `capacity / shards`. Proof:
    ///   with `C = capacity`, `S = shards`, the quota is `C/S`, and a
    ///   shard only admits below it, so every shard's length is at most
    ///   `C/S` at all times. Then `depth >= C` implies every shard sits
    ///   at its quota, and the refusal test `depth >= C || len_s >= C/S`
    ///   reduces to `len_s >= C/S` — the one-shard queue's test. Capacity
    ///   0 refuses everything under both forms.
    ///
    /// `RejectNew` and `DropOldest` under a bound read the global depth,
    /// and `FairPerShard` with `S ∤ C` can hit the global bound before a
    /// quota (5 over 2: quota 3, and shards at 3 + 2 refuse the second
    /// shard's third ticket), so those couple.
    pub fn per_shard(&self, shards: usize) -> Option<AdmissionConfig> {
        if shards <= 1 || !self.is_bounded() {
            Some(*self)
        } else if self.policy == SheddingPolicy::FairPerShard
            && self.capacity.is_multiple_of(shards)
        {
            Some(AdmissionConfig::bounded(
                self.capacity / shards,
                SheddingPolicy::FairPerShard,
            ))
        } else {
            None
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::bounded(64, SheddingPolicy::FairPerShard)
    }
}

/// The typed overload rejection: the queue refused an arriving payment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadError {
    /// The shard the payment was headed for.
    pub shard: usize,
    /// That shard's queue depth at the moment of rejection.
    pub shard_depth: usize,
    /// Total queued payments across all shards at rejection.
    pub depth: usize,
    /// The configured global capacity.
    pub capacity: usize,
    /// The policy that made the call.
    pub policy: SheddingPolicy,
}

impl fmt::Display for OverloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overload: shard {} refused under {} (shard depth {}, total {}/{})",
            self.shard, self.policy, self.shard_depth, self.depth, self.capacity
        )
    }
}

impl Error for OverloadError {}

/// One queued payment: who it's for, when it was scheduled to arrive,
/// and its global admission sequence number (FIFO order across shards).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Global admission sequence number (monotone over `offer` calls).
    pub seq: u64,
    /// The shard that will serve the payment.
    pub shard: usize,
    /// Scheduled arrival time — the open-loop timestamp latency is
    /// charged from, *not* the time the server got around to it.
    pub arrival: SimTime,
    /// Payment value, satoshis.
    pub amount_sats: u64,
}

/// Per-shard admission accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardAdmissionStats {
    /// Payments admitted into this shard's queue.
    pub admitted: u64,
    /// Arrivals refused outright (`RejectNew` / `FairPerShard`).
    pub rejected_new: u64,
    /// Queued payments displaced by newer arrivals (`DropOldest`).
    pub dropped_oldest: u64,
    /// Current queue depth.
    pub depth: usize,
    /// Deepest the queue ever got.
    pub high_water: usize,
}

impl ShardAdmissionStats {
    /// Everything this shard shed, however it was shed.
    pub fn shed(&self) -> u64 {
        self.rejected_new + self.dropped_oldest
    }
}

/// A capacity-bounded multi-shard FIFO of payment tickets.
///
/// Admission (`offer`) and service (`pop`) are the only mutating
/// operations, and both are deterministic, so the [shed log](Self::shed_log)
/// is byte-stable across replays of the same call sequence.
#[derive(Clone, Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    queues: Vec<VecDeque<Ticket>>,
    stats: Vec<ShardAdmissionStats>,
    depth: usize,
    next_seq: u64,
    shed_log: Vec<Ticket>,
}

impl AdmissionQueue {
    /// An empty queue over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize, config: AdmissionConfig) -> AdmissionQueue {
        // Cannot fire from the engine: it builds one queue per admission
        // group, and a zero-shard engine forms no group.
        assert!(shards > 0, "at least one shard");
        AdmissionQueue {
            config,
            queues: vec![VecDeque::new(); shards],
            stats: vec![ShardAdmissionStats::default(); shards],
            depth: 0,
            next_seq: 0,
            shed_log: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Each shard's quota under [`SheddingPolicy::FairPerShard`]: the
    /// global capacity split evenly, rounded up, never below one.
    pub fn fair_quota(&self) -> usize {
        if self.config.capacity == usize::MAX {
            usize::MAX
        } else {
            self.config.capacity.div_ceil(self.queues.len()).max(1)
        }
    }

    /// Offers one payment to shard `shard`'s queue.
    ///
    /// On admission returns the payment's global sequence number. Under
    /// [`SheddingPolicy::DropOldest`] an admission at the bound displaces
    /// the globally oldest queued ticket into the [shed log](Self::shed_log).
    ///
    /// # Errors
    ///
    /// [`OverloadError`] when the policy refuses the arrival; the refused
    /// ticket is also recorded in the shed log.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn offer(
        &mut self,
        shard: usize,
        arrival: SimTime,
        amount_sats: u64,
    ) -> Result<u64, OverloadError> {
        // Cannot fire from the engine: `run_load` returns `BadSchedule`
        // for an out-of-range shard before it offers anything.
        assert!(shard < self.queues.len(), "shard out of range");
        let ticket = Ticket {
            seq: self.next_seq,
            shard,
            arrival,
            amount_sats,
        };
        self.next_seq += 1;

        let at_global_bound = self.depth >= self.config.capacity;
        let refused = match self.config.policy {
            SheddingPolicy::RejectNew => at_global_bound,
            // A zero-capacity queue has nothing to displace: refuse.
            SheddingPolicy::DropOldest => at_global_bound && !self.drop_oldest(),
            SheddingPolicy::FairPerShard => {
                at_global_bound || self.queues[shard].len() >= self.fair_quota()
            }
        };
        if refused {
            self.stats[shard].rejected_new += 1;
            self.shed_log.push(ticket);
            return Err(OverloadError {
                shard,
                shard_depth: self.queues[shard].len(),
                depth: self.depth,
                capacity: self.config.capacity,
                policy: self.config.policy,
            });
        }

        self.queues[shard].push_back(ticket);
        self.depth += 1;
        let stats = &mut self.stats[shard];
        stats.admitted += 1;
        stats.depth = self.queues[shard].len();
        stats.high_water = stats.high_water.max(stats.depth);
        Ok(ticket.seq)
    }

    /// Takes the next payment from shard `shard`'s queue, FIFO; `None`
    /// when that queue is empty or `shard` is out of range.
    pub fn pop(&mut self, shard: usize) -> Option<Ticket> {
        let queue = self.queues.get_mut(shard)?;
        let ticket = queue.pop_front()?;
        self.depth -= 1;
        // `stats` has one entry per queue.
        self.stats[shard].depth = queue.len();
        Some(ticket)
    }

    /// Current depth of one shard's queue.
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.queues[shard].len()
    }

    /// Total queued payments across all shards.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Per-shard accounting, indexed by shard.
    pub fn stats(&self) -> &[ShardAdmissionStats] {
        &self.stats
    }

    /// Every ticket shed so far, in shed order — the deterministic shed
    /// set hashed into the engine's replay fingerprint.
    ///
    /// Shed order is also `seq` order: a refusal sheds the newest ticket,
    /// a displacement the oldest queued one, and `DropOldest` refuses only
    /// at capacity 0, where it never displaces.
    pub fn shed_log(&self) -> &[Ticket] {
        &self.shed_log
    }

    /// Displaces the globally oldest queued ticket (lowest seq) into the
    /// shed log; `false` when nothing is queued.
    fn drop_oldest(&mut self) -> bool {
        let oldest = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(shard, q)| q.front().map(|t| (t.seq, shard)))
            .min();
        let Some(dropped) = oldest.and_then(|(_, shard)| self.pop(shard)) else {
            return false;
        };
        self.stats[dropped.shard].dropped_oldest += 1;
        self.shed_log.push(dropped);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn reject_new_refuses_at_the_global_bound() {
        let mut q = AdmissionQueue::new(2, AdmissionConfig::bounded(3, SheddingPolicy::RejectNew));
        assert!(q.offer(0, t(1), 100).is_ok());
        assert!(q.offer(1, t(2), 100).is_ok());
        assert!(q.offer(0, t(3), 100).is_ok());
        let err = q.offer(1, t(4), 100).unwrap_err();
        assert_eq!(err.capacity, 3);
        assert_eq!(err.depth, 3);
        assert_eq!(err.policy, SheddingPolicy::RejectNew);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.stats()[1].rejected_new, 1);
        assert_eq!(q.shed_log().len(), 1);
        assert_eq!(q.shed_log()[0].seq, 3, "the refused arrival is logged");
        // Draining makes room again.
        assert_eq!(q.pop(0).unwrap().seq, 0);
        assert!(q.offer(1, t(5), 100).is_ok());
    }

    #[test]
    fn drop_oldest_displaces_the_globally_oldest_ticket() {
        let mut q = AdmissionQueue::new(2, AdmissionConfig::bounded(2, SheddingPolicy::DropOldest));
        q.offer(0, t(1), 100).unwrap();
        q.offer(1, t(2), 100).unwrap();
        // Full: the next arrival displaces seq 0 (shard 0's front).
        let seq = q.offer(1, t(3), 100).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.shard_depth(0), 0);
        assert_eq!(q.shard_depth(1), 2);
        assert_eq!(q.stats()[0].dropped_oldest, 1);
        assert_eq!(q.shed_log().len(), 1);
        assert_eq!(q.shed_log()[0].seq, 0);
        // Service order within the surviving shard stays FIFO.
        assert_eq!(q.pop(1).unwrap().seq, 1);
        assert_eq!(q.pop(1).unwrap().seq, 2);
    }

    #[test]
    fn fair_per_shard_protects_light_shards_from_a_hot_one() {
        let mut q =
            AdmissionQueue::new(4, AdmissionConfig::bounded(8, SheddingPolicy::FairPerShard));
        assert_eq!(q.fair_quota(), 2);
        // A hot shard 0 fills its quota, then gets refused...
        q.offer(0, t(1), 100).unwrap();
        q.offer(0, t(2), 100).unwrap();
        let err = q.offer(0, t(3), 100).unwrap_err();
        assert_eq!(err.shard, 0);
        assert_eq!(err.shard_depth, 2);
        // ...while every other shard still has room.
        for shard in 1..4 {
            assert!(q.offer(shard, t(4), 100).is_ok(), "shard {shard}");
        }
        assert_eq!(q.stats()[0].rejected_new, 1);
        assert_eq!(q.stats()[0].shed(), 1);
    }

    #[test]
    fn unbounded_never_sheds() {
        let mut q = AdmissionQueue::new(1, AdmissionConfig::unbounded());
        for i in 0..10_000u64 {
            q.offer(0, SimTime::from_micros(i), 1).unwrap();
        }
        assert_eq!(q.depth(), 10_000);
        assert!(q.shed_log().is_empty());
        assert!(!q.config().is_bounded());
    }

    #[test]
    fn high_water_and_depth_track_offer_pop_churn() {
        let mut q = AdmissionQueue::new(1, AdmissionConfig::bounded(4, SheddingPolicy::RejectNew));
        q.offer(0, t(1), 1).unwrap();
        q.offer(0, t(2), 1).unwrap();
        q.pop(0).unwrap();
        q.offer(0, t(3), 1).unwrap();
        assert_eq!(q.stats()[0].depth, 2);
        assert_eq!(q.stats()[0].high_water, 2);
        assert_eq!(q.stats()[0].admitted, 3);
        assert_eq!(q.pop(0).unwrap().seq, 1);
        assert_eq!(q.pop(0).unwrap().seq, 2);
        assert!(q.pop(0).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn identical_offer_sequences_produce_identical_shed_logs() {
        let drive = |policy| {
            let mut q = AdmissionQueue::new(3, AdmissionConfig::bounded(5, policy));
            let mut shed = Vec::new();
            for i in 0..40u64 {
                let shard = (i % 3) as usize;
                let _ = q.offer(shard, SimTime::from_millis(i * 17), 1_000 + i);
                if i % 7 == 6 {
                    q.pop(shard);
                }
            }
            shed.extend_from_slice(q.shed_log());
            shed
        };
        for policy in [
            SheddingPolicy::RejectNew,
            SheddingPolicy::DropOldest,
            SheddingPolicy::FairPerShard,
        ] {
            assert_eq!(drive(policy), drive(policy), "{policy}");
            assert!(!drive(policy).is_empty(), "{policy} sheds under pressure");
        }
    }

    #[test]
    fn admission_is_shard_local_exactly_where_the_rule_says() {
        use SheddingPolicy::*;
        let fair = |capacity| AdmissionConfig::bounded(capacity, FairPerShard);
        assert_eq!(fair(32).per_shard(2), Some(fair(16)));
        assert_eq!(fair(6).per_shard(3), Some(fair(2)));
        assert_eq!(fair(0).per_shard(2), Some(fair(0)));
        for policy in [RejectNew, DropOldest, FairPerShard] {
            let unbounded = AdmissionConfig {
                capacity: usize::MAX,
                policy,
            };
            assert_eq!(unbounded.per_shard(3), Some(unbounded));
            let bounded = AdmissionConfig::bounded(5, policy);
            assert_eq!(bounded.per_shard(1), Some(bounded));
            assert_eq!(bounded.per_shard(0), Some(bounded));
        }
        assert_eq!(AdmissionConfig::bounded(4, RejectNew).per_shard(2), None);
        assert_eq!(AdmissionConfig::bounded(4, DropOldest).per_shard(2), None);
        assert_eq!(fair(5).per_shard(2), None);

        // Why 5 over 2 couples: quota 3, and with shard 0 at 3 the global
        // bound refuses shard 1's third ticket, which a queue of its own
        // under the same quota admits.
        let mut joint = AdmissionQueue::new(2, fair(5));
        let mut alone = AdmissionQueue::new(1, fair(3));
        for _ in 0..3 {
            joint.offer(0, t(1), 1).unwrap();
        }
        for _ in 0..2 {
            joint.offer(1, t(1), 1).unwrap();
            alone.offer(0, t(1), 1).unwrap();
        }
        assert!(joint.offer(1, t(2), 1).is_err());
        assert!(alone.offer(0, t(2), 1).is_ok());
    }

    #[test]
    fn pop_out_of_range_is_none() {
        let mut q = AdmissionQueue::new(2, AdmissionConfig::default());
        q.offer(1, t(1), 1).unwrap();
        assert!(q.pop(2).is_none());
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn overload_error_renders_context() {
        let mut q = AdmissionQueue::new(1, AdmissionConfig::bounded(1, SheddingPolicy::RejectNew));
        q.offer(0, t(1), 1).unwrap();
        let err = q.offer(0, t(2), 1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("overload"), "{text}");
        assert!(text.contains("reject-new"), "{text}");
        assert!(text.contains("1/1"), "{text}");
    }
}
