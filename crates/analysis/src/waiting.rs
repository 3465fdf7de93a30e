//! Waiting-time model: how long a merchant waits under the confirmation
//! baseline.

use crate::mathutil::gamma_p;

/// Confirmation waiting time for `z` confirmations with expected block
/// interval `t` seconds: the sum of `z` i.i.d. exponentials, i.e.
/// Erlang(z, 1/t).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfirmationWait {
    /// Number of confirmations required.
    pub confirmations: u64,
    /// Expected block interval in seconds.
    pub block_interval_secs: f64,
}

impl ConfirmationWait {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn new(confirmations: u64, block_interval_secs: f64) -> ConfirmationWait {
        assert!(confirmations > 0, "confirmations must be positive");
        assert!(block_interval_secs > 0.0, "interval must be positive");
        ConfirmationWait {
            confirmations,
            block_interval_secs,
        }
    }

    /// Mean waiting time in seconds (`z · t`).
    pub fn mean_secs(&self) -> f64 {
        self.confirmations as f64 * self.block_interval_secs
    }

    /// Standard deviation (`√z · t`).
    pub fn std_dev_secs(&self) -> f64 {
        (self.confirmations as f64).sqrt() * self.block_interval_secs
    }

    /// CDF: probability all `z` confirmations arrive within `t` seconds.
    pub fn cdf(&self, t_secs: f64) -> f64 {
        if t_secs <= 0.0 {
            return 0.0;
        }
        gamma_p(self.confirmations as f64, t_secs / self.block_interval_secs)
    }

    /// Quantile via bisection on the CDF.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        let mut lo = 0.0;
        let mut hi = self.mean_secs() * 20.0 + 10.0 * self.std_dev_secs();
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn six_conf_mean_is_one_hour() {
        let w = ConfirmationWait::new(6, 600.0);
        assert_eq!(w.mean_secs(), 3600.0);
        close(w.std_dev_secs(), 600.0 * 6f64.sqrt(), 1e-9);
    }

    #[test]
    fn cdf_properties() {
        let w = ConfirmationWait::new(6, 600.0);
        assert_eq!(w.cdf(0.0), 0.0);
        assert_eq!(w.cdf(-5.0), 0.0);
        assert!(w.cdf(1e7) > 0.999999);
        // Median of Erlang is below the mean.
        assert!(w.cdf(w.mean_secs()) > 0.5);
    }

    #[test]
    fn single_conf_is_exponential() {
        let w = ConfirmationWait::new(1, 600.0);
        // CDF(t) = 1 - e^{-t/600}
        close(w.cdf(600.0), 1.0 - (-1.0f64).exp(), 1e-10);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = ConfirmationWait::new(6, 600.0);
        for p in [0.1, 0.5, 0.9, 0.99] {
            let t = w.quantile(p);
            close(w.cdf(t), p, 1e-9);
        }
    }

    #[test]
    fn quantile_orders() {
        let w = ConfirmationWait::new(3, 600.0);
        assert!(w.quantile(0.5) < w.quantile(0.9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_confirmations() {
        ConfirmationWait::new(0, 600.0);
    }
}
