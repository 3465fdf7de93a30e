//! Message latency models.

use crate::time::SimTime;
use rand::Rng;

/// A one-way message delay distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Fixed delay.
    Constant {
        /// Delay in seconds.
        secs: f64,
    },
    /// Log-normal: the empirical shape of wide-area internet RTTs.
    LogNormal {
        /// Median delay in seconds (`exp(mu)`).
        median_secs: f64,
        /// Shape parameter sigma of the underlying normal.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Same-datacenter / LAN profile: ~0.5 ms constant.
    pub fn lan() -> LatencyModel {
        LatencyModel::Constant { secs: 0.0005 }
    }

    /// Wide-area internet profile: log-normal with 80 ms median — the
    /// customer→merchant→chain path the paper's <1 s claim must survive.
    pub fn wan() -> LatencyModel {
        LatencyModel::LogNormal {
            median_secs: 0.080,
            sigma: 0.5,
        }
    }

    /// Samples one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let secs = match *self {
            LatencyModel::Constant { secs } => secs,
            LatencyModel::LogNormal { median_secs, sigma } => {
                // Box-Muller standard normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                median_secs * (sigma * z).exp()
            }
        };
        SimTime::from_secs_f64(secs.max(0.0))
    }

    /// The distribution mean in seconds (analytic, for reporting).
    pub fn mean_secs(&self) -> f64 {
        match *self {
            LatencyModel::Constant { secs } => secs,
            LatencyModel::LogNormal { median_secs, sigma } => {
                median_secs * (sigma * sigma / 2.0).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant { secs: 0.02 };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimTime::from_millis(20));
        }
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LatencyModel::wan();
        let mut samples: Vec<f64> = (0..5000)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((0.06..0.10).contains(&median), "median = {median}");
        // All positive.
        assert!(samples[0] >= 0.0);
    }

    #[test]
    fn mean_secs_analytic() {
        assert_eq!(LatencyModel::Constant { secs: 0.5 }.mean_secs(), 0.5);
        let ln = LatencyModel::LogNormal {
            median_secs: 0.08,
            sigma: 0.5,
        };
        assert!(ln.mean_secs() > 0.08); // log-normal mean exceeds median
    }

    #[test]
    fn profiles_ordered_by_scale() {
        assert!(LatencyModel::lan().mean_secs() < LatencyModel::wan().mean_secs());
    }
}
