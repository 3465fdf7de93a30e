//! Shared quantile math for every latency summary in the workspace.
//!
//! The perf gate's quartiles (`bench/src/ab.rs`) and the engine's
//! accept-latency quantiles extract percentiles the same way: **nearest
//! rank** over a sorted sample set. Centralizing the rank rule here keeps
//! every reported p50/p95/p99 in the repo comparable.

/// Index of the `q`-quantile in a sorted `len`-sample set (nearest rank).
///
/// `q` is clamped to `[0, 1]`; `len` must be nonzero for the index to be
/// meaningful (callers guard, see [`quantile_sorted_f64`]).
pub fn nearest_rank(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((len as f64 - 1.0) * q).round() as usize;
    rank.min(len - 1)
}

/// The `q`-quantile of an ascending-sorted `f64` sample set, nearest-rank.
/// `None` on an empty set.
pub fn quantile_sorted_f64(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q)])
}

/// The `q`-quantile of an ascending-sorted `u64` sample set, nearest-rank.
/// `None` on an empty set.
pub fn quantile_sorted_u64(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sets_have_no_quantiles() {
        assert_eq!(quantile_sorted_f64(&[], 0.5), None);
        assert_eq!(quantile_sorted_u64(&[], 0.99), None);
        assert_eq!(nearest_rank(0, 0.5), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_sorted_u64(&[7], q), Some(7));
            assert_eq!(quantile_sorted_f64(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn hundred_samples_match_the_perf_stats_convention() {
        // The ranges every summary in the workspace has relied on since PR 2.
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile_sorted_f64(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted_f64(&sorted, 1.0), Some(100.0));
        let p50 = quantile_sorted_f64(&sorted, 0.5).unwrap();
        let p95 = quantile_sorted_f64(&sorted, 0.95).unwrap();
        assert!((49.0..=52.0).contains(&p50));
        assert!((94.0..=97.0).contains(&p95));
    }

    #[test]
    fn out_of_range_q_clamps() {
        assert_eq!(quantile_sorted_u64(&[1, 2, 3], -1.0), Some(1));
        assert_eq!(quantile_sorted_u64(&[1, 2, 3], 2.0), Some(3));
        assert_eq!(quantile_sorted_f64(&[1.0, 2.0], f64::NAN), Some(1.0));
    }
}
