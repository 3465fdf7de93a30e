//! Bounded admission control for the payment engine.
//!
//! An open-loop workload keeps arriving whether or not the merchant keeps
//! up; without a bound, the engine's queue — and every queued payment's
//! waiting time — grows without limit past the saturation knee. This
//! module is the backpressure layer. Each merchant accepts payments on its
//! own node, so each shard has a FIFO of its own, bounded at its share of
//! the configured capacity ([`AdmissionConfig::per_shard`]); an arrival to
//! a full queue is refused into that shard's shed log.
//!
//! Everything here is plain deterministic data: admission decisions are a
//! pure function of the offer/pop sequence, so the shed set can be hashed
//! into an engine run's replay fingerprint.

use btcfast_netsim::time::SimTime;
use std::collections::VecDeque;

/// What a shard's queue does at its bound: refuse the arrival. One
/// variant, kept only because the `benchmark/` package spells
/// `AdmissionConfig::bounded(32, SheddingPolicy::FairPerShard)`; it goes
/// when that package stops naming it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SheddingPolicy {
    /// Split the capacity into equal per-shard bounds and refuse arrivals
    /// to a shard already at its bound. One hot shard can never starve
    /// the others' queue space.
    FairPerShard,
}

/// Admission-control knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Total queued payments allowed across all shards. `usize::MAX`
    /// disables shedding (the unbounded baseline the benchmarks compare
    /// against).
    pub capacity: usize,
}

impl AdmissionConfig {
    /// A bounded queue with the given capacity (the policy has one value).
    pub fn bounded(capacity: usize, _policy: SheddingPolicy) -> AdmissionConfig {
        AdmissionConfig { capacity }
    }

    /// The unbounded baseline: nothing is ever shed.
    pub fn unbounded() -> AdmissionConfig {
        AdmissionConfig {
            capacity: usize::MAX,
        }
    }

    /// Each of `shards` shards' queue bound: the capacity split evenly,
    /// rounded up (`usize::MAX` when unbounded). `shards` must be nonzero.
    pub fn per_shard(&self, shards: usize) -> usize {
        if self.capacity == usize::MAX {
            usize::MAX
        } else {
            self.capacity.div_ceil(shards)
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::bounded(64, SheddingPolicy::FairPerShard)
    }
}

/// One offered payment: who it's for, when it was scheduled to arrive,
/// and its offer index over the whole schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Offer index: payments offered before this one, across all shards.
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
    /// Arrivals refused at the bound (this shard's sheds).
    pub rejected_new: u64,
    /// Deepest the queue ever got.
    pub high_water: usize,
}

/// One shard's bounded FIFO of payment tickets.
///
/// Admission (`offer`) and service (`pop`) are the only mutating
/// operations, and both are deterministic, so the shed log is byte-stable
/// across replays of the same call sequence, and in `seq` order.
#[derive(Debug)]
pub(crate) struct ShardQueue {
    bound: usize,
    tickets: VecDeque<Ticket>,
    stats: ShardAdmissionStats,
    shed_log: Vec<Ticket>,
}

impl ShardQueue {
    /// An empty queue that holds at most `bound` tickets.
    pub(crate) fn new(bound: usize) -> ShardQueue {
        ShardQueue {
            bound,
            tickets: VecDeque::new(),
            stats: ShardAdmissionStats::default(),
            shed_log: Vec::new(),
        }
    }

    /// Admits `ticket`, or refuses it into the shed log when the queue
    /// holds its bound.
    pub(crate) fn offer(&mut self, ticket: Ticket) {
        if self.tickets.len() >= self.bound {
            self.stats.rejected_new += 1;
            self.shed_log.push(ticket);
            return;
        }
        self.tickets.push_back(ticket);
        self.stats.admitted += 1;
        self.stats.high_water = self.stats.high_water.max(self.tickets.len());
    }

    /// Takes the oldest queued ticket; `None` when the queue is empty.
    pub(crate) fn pop(&mut self) -> Option<Ticket> {
        self.tickets.pop_front()
    }

    /// Tickets queued now.
    pub(crate) fn len(&self) -> usize {
        self.tickets.len()
    }

    /// The accounting so far.
    pub(crate) fn stats(&self) -> ShardAdmissionStats {
        self.stats
    }

    /// Every refused ticket, in offer order.
    pub(crate) fn into_shed_log(self) -> Vec<Ticket> {
        self.shed_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(seq: u64) -> Ticket {
        Ticket {
            seq,
            shard: 0,
            arrival: SimTime::from_millis(seq),
            amount_sats: 1,
        }
    }

    /// The queue: refuses at its bound into the shed log, serves FIFO,
    /// and tracks its high-water mark through offer/pop churn.
    #[test]
    fn high_water_and_depth_track_offer_pop_churn() {
        let mut q = ShardQueue::new(2);
        q.offer(ticket(0));
        q.offer(ticket(1));
        q.offer(ticket(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().seq, 0);
        q.offer(ticket(3));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert!(q.pop().is_none());
        let stats = q.stats();
        assert_eq!(
            (stats.admitted, stats.rejected_new, stats.high_water),
            (3, 1, 2)
        );
        assert_eq!(q.into_shed_log(), [ticket(2)]);
    }

    /// The split: each shard's bound is its share of the capacity, so a
    /// hot shard fills only its own queue.
    #[test]
    fn fair_per_shard_protects_light_shards_from_a_hot_one() {
        let fair = |capacity| AdmissionConfig::bounded(capacity, SheddingPolicy::FairPerShard);
        assert_eq!(fair(32).per_shard(2), 16);
        assert_eq!(fair(5).per_shard(2), 3);
        assert_eq!(fair(0).per_shard(3), 0);
        assert_eq!(AdmissionConfig::unbounded().per_shard(3), usize::MAX);

        let mut queues: Vec<ShardQueue> = (0..4)
            .map(|_| ShardQueue::new(fair(8).per_shard(4)))
            .collect();
        for seq in 0..3 {
            queues[0].offer(ticket(seq));
        }
        assert_eq!(queues[0].stats().rejected_new, 1);
        for queue in &mut queues[1..] {
            queue.offer(ticket(3));
            assert_eq!(queue.stats().admitted, 1);
        }
    }

    /// With the capacity a multiple of the shard count, the shard bounds
    /// sum to it: filling every shard refuses the next arrival anywhere,
    /// and a pop makes room again only in the shard it drained.
    #[test]
    fn reject_new_refuses_at_the_global_bound() {
        let config = AdmissionConfig::bounded(4, SheddingPolicy::FairPerShard);
        let mut queues: Vec<ShardQueue> = (0..2)
            .map(|_| ShardQueue::new(config.per_shard(2)))
            .collect();
        for seq in 0..4 {
            queues[(seq % 2) as usize].offer(ticket(seq));
        }
        assert_eq!(queues.iter().map(ShardQueue::len).sum::<usize>(), 4);
        queues[0].offer(ticket(4));
        queues[1].offer(ticket(5));
        assert_eq!(queues.iter().map(ShardQueue::len).sum::<usize>(), 4);
        assert_eq!(queues[0].stats().rejected_new, 1);
        assert_eq!(queues[1].stats().rejected_new, 1);
        // Draining shard 0 makes room in shard 0 and nowhere else.
        assert_eq!(queues[0].pop().unwrap().seq, 0);
        queues[1].offer(ticket(6));
        queues[0].offer(ticket(7));
        assert_eq!(queues[1].stats().rejected_new, 2);
        assert_eq!(queues[0].stats().admitted, 3);
        let [q0, q1]: [ShardQueue; 2] = queues.try_into().unwrap();
        assert_eq!(q0.into_shed_log(), [ticket(4)]);
        assert_eq!(q1.into_shed_log(), [ticket(5), ticket(6)]);
    }

    /// Admission is shard-local for every configuration: a shard's queue
    /// under the split admits exactly what a one-shard run with the same
    /// bound admits, whatever the other shards hold.
    #[test]
    fn admission_is_shard_local_exactly_where_the_rule_says() {
        let fair = |capacity| AdmissionConfig::bounded(capacity, SheddingPolicy::FairPerShard);
        assert_eq!(fair(32).per_shard(2), fair(16).per_shard(1));
        assert_eq!(fair(6).per_shard(3), fair(2).per_shard(1));
        assert_eq!(fair(0).per_shard(2), 0);
        assert_eq!(fair(5).per_shard(1), 5);
        assert_eq!(AdmissionConfig::unbounded().per_shard(1), usize::MAX);

        // 5 over 2 is quota 3: with shard 0 full, shard 1 still admits its
        // third ticket, as a queue of its own under quota 3 does.
        let mut joint: Vec<ShardQueue> = (0..2)
            .map(|_| ShardQueue::new(fair(5).per_shard(2)))
            .collect();
        let mut alone = ShardQueue::new(fair(3).per_shard(1));
        for seq in 0..3 {
            joint[0].offer(ticket(seq));
        }
        for seq in 3..6 {
            joint[1].offer(ticket(seq));
            alone.offer(ticket(seq));
        }
        assert_eq!(joint[1].stats(), alone.stats());
        assert_eq!(joint[1].stats().rejected_new, 0);
        joint[1].offer(ticket(6));
        alone.offer(ticket(6));
        assert_eq!(joint[1].stats(), alone.stats());
        assert_eq!(alone.stats().rejected_new, 1);
    }

    #[test]
    fn unbounded_never_sheds() {
        let mut q = ShardQueue::new(AdmissionConfig::unbounded().per_shard(1));
        for seq in 0..10_000 {
            q.offer(ticket(seq));
        }
        assert_eq!(q.len(), 10_000);
        assert!(q.into_shed_log().is_empty());
    }

    #[test]
    fn identical_offer_sequences_produce_identical_shed_logs() {
        let drive = || {
            let mut q = ShardQueue::new(3);
            for seq in 0..40 {
                q.offer(ticket(seq));
                if seq % 7 == 6 {
                    q.pop();
                }
            }
            q.into_shed_log()
        };
        assert_eq!(drive(), drive());
        assert!(!drive().is_empty(), "sheds under pressure");
    }
}
