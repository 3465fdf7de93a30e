//! The fabric under the transport: per-link latency, loss, and partitions.
//! It carries no payload; it decides whether and when a message arrives.

use crate::latency::LatencyModel;
use crate::time::SimTime;
use rand::Rng;
use std::collections::HashSet;
use std::fmt;

/// A node identity within a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The network fabric. It does not own a scheduler: [`Network::send`]
/// returns the arrival time for the caller to feed into its event loop,
/// keeping the fabric reusable across simulation drivers.
#[derive(Clone, Debug)]
pub struct Network {
    latency: LatencyModel,
    /// Probability an individual message is silently dropped.
    loss_probability: f64,
    /// Severed (unordered) node pairs.
    partitions: HashSet<(NodeId, NodeId)>,
}

impl Network {
    /// Creates a fabric over `_nodes` nodes with a latency model. A link
    /// holds no per-node state, so the count is not stored.
    pub fn new(_nodes: u32, latency: LatencyModel) -> Network {
        Network {
            latency,
            loss_probability: 0.0,
            partitions: HashSet::new(),
        }
    }

    /// Sets the per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss_probability = p;
    }

    /// Severs the link between two nodes (both directions).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(Self::key(a, b));
    }

    /// Heals a severed link.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&Self::key(a, b));
    }

    /// True if the pair can currently communicate.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        !self.partitions.contains(&Self::key(a, b))
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sends one message, returning its arrival time, or `None` when the
    /// link is partitioned or the message was lost.
    pub fn send<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> Option<SimTime> {
        if !self.connected(from, to) {
            return None;
        }
        if self.loss_probability > 0.0 && rng.gen_bool(self.loss_probability) {
            return None;
        }
        Some(now + self.latency.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn send_applies_latency() {
        let net = Network::new(2, LatencyModel::Constant { secs: 0.1 });
        let at = net.send(NodeId(0), NodeId(1), SimTime::from_secs(1), &mut rng());
        assert_eq!(at, Some(SimTime::from_secs_f64(1.1)));
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut net = Network::new(3, LatencyModel::lan());
        net.partition(NodeId(0), NodeId(1));
        assert!(!net.connected(NodeId(0), NodeId(1)));
        assert!(!net.connected(NodeId(1), NodeId(0))); // symmetric
        assert!(net.connected(NodeId(0), NodeId(2)));
        assert!(net
            .send(NodeId(0), NodeId(1), SimTime::ZERO, &mut rng())
            .is_none());
        assert!(net
            .send(NodeId(0), NodeId(2), SimTime::ZERO, &mut rng())
            .is_some());
        net.heal(NodeId(0), NodeId(1));
        assert!(net.connected(NodeId(0), NodeId(1)));
        let arrival = net
            .send(NodeId(0), NodeId(1), SimTime::ZERO, &mut rng())
            .expect("healed link delivers");
        assert!(arrival > SimTime::ZERO);
    }

    #[test]
    fn loss_drops_messages() {
        let mut net = Network::new(2, LatencyModel::lan());
        net.set_loss_probability(1.0);
        assert!(net
            .send(NodeId(0), NodeId(1), SimTime::ZERO, &mut rng())
            .is_none());
        net.set_loss_probability(0.0);
        assert!(net
            .send(NodeId(0), NodeId(1), SimTime::ZERO, &mut rng())
            .is_some());
    }

    #[test]
    fn loss_is_probabilistic() {
        let mut net = Network::new(2, LatencyModel::lan());
        net.set_loss_probability(0.5);
        let mut r = rng();
        let delivered = (0..1000)
            .filter(|_| {
                net.send(NodeId(0), NodeId(1), SimTime::ZERO, &mut r)
                    .is_some()
            })
            .count();
        assert!((300..700).contains(&delivered), "{delivered}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_loss_probability_panics() {
        Network::new(1, LatencyModel::lan()).set_loss_probability(1.5);
    }
}
