//! The benchmark's own seeded generator, so it needs no dependency outside
//! `crates/*` and the same `--seed` always yields byte-identical inputs.

use btcfast::engine::LoadArrival;
use btcfast_netsim::time::SimTime;

/// splitmix64: tiny, full-period, good enough to sample schedules.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by rejection so it is unbiased.
    pub fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// The seed of slice `index` of a run: consecutive slices of one run get
/// consecutive seeds, while runs at neighbouring `--seed`s share none.
pub fn slice_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed).next_u64().wrapping_add(index)
}

/// An open-loop schedule of `arrivals` single-payment arrivals at an
/// aggregate Poisson rate, each routed to a uniformly random shard.
/// Sampled up front, so the generator cannot lag the system under test.
pub fn poisson_schedule(
    seed: u64,
    rate_per_sec: f64,
    shards: usize,
    arrivals: usize,
) -> Vec<LoadArrival> {
    let mut rng = SplitMix64::new(seed);
    let mut at_secs = 0.0f64;
    let mut last = SimTime::ZERO;
    (0..arrivals)
        .map(|_| {
            at_secs += -rng.unit_open().ln() / rate_per_sec;
            // Rounding to whole microseconds must not reorder arrivals.
            last = SimTime::from_secs_f64(at_secs).max(last);
            LoadArrival {
                at: last,
                shard: rng.below(shards as u64) as usize,
                payments: 1,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        let a = poisson_schedule(7, 3.0, 2, 500);
        assert_eq!(a, poisson_schedule(7, 3.0, 2, 500));
        assert_ne!(a, poisson_schedule(8, 3.0, 2, 500));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(a.iter().any(|x| x.shard == 0) && a.iter().any(|x| x.shard == 1));
        // 500 arrivals at 3/s span about 167 simulated seconds.
        let span = a.last().unwrap().at.as_secs_f64();
        assert!((120.0..220.0).contains(&span), "span = {span}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
