//! Summaries: the repository's nearest-rank quantile plus the rule that a
//! percentile is reported only with at least ten samples beyond it.

use btcfast_obs::stats::{nearest_rank, quantile_sorted_f64};

/// Samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile of unsorted `samples` (nearest rank, the rule every
/// latency summary in `crates/*` uses). `None` on an empty set.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted_f64(&sorted, q)
}

/// The median; `0.0` on an empty set, so absent layers read as zero.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// True when at least [`MIN_SAMPLES_BEYOND`] of `len` samples rank above
/// the `q`-quantile, so the percentile is supported by the sample.
pub fn supported(len: usize, q: f64) -> bool {
    len > 0 && len - 1 - nearest_rank(len, q) >= MIN_SAMPLES_BEYOND
}

/// The `q`-quantile of integer microsecond samples, or `None` when the
/// sample does not support it (see [`supported`]).
pub fn percentile_us(samples: &[u64], q: f64) -> Option<u64> {
    if !supported(samples.len(), q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[nearest_rank(sorted.len(), q)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        // round(999 * 0.5) = 500 → the 501st smallest.
        assert_eq!(percentile_us(&samples, 0.50), Some(501));
        // round(999 * 0.99) = 989 → the 990th smallest, ten beyond it.
        assert_eq!(percentile_us(&samples, 0.99), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(supported(952, 0.99));
        assert!(!supported(951, 0.99), "only nine samples beyond");
        assert!(supported(21, 0.5));
        assert!(!supported(20, 0.5));
        assert!(!supported(0, 0.5));
        let few: Vec<u64> = (0..500).collect();
        assert_eq!(percentile_us(&few, 0.99), None);
        assert!(percentile_us(&few, 0.50).is_some());
    }

    #[test]
    fn empty_sets_summarise_to_zero() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
