//! Rosenfeld's exact double-spend analysis ("Analysis of Hashrate-Based
//! Double Spending", 2012).
//!
//! The refinement over Nakamoto's whitepaper model: while the honest network
//! mines exactly `z` blocks, the attacker's progress follows a **negative
//! binomial** distribution (Nakamoto approximates it as Poisson). The
//! success probability has the closed form
//!
//! ```text
//! r(z) = 1 − Σ_{m=0}^{z} C(m+z−1, m) · (p^z q^m − q^z p^m)
//! ```
//!
//! which equals the sum over attacker progress `m` of the probability of
//! eventually catching up from `z − m` behind, `(q/p)^{z−m}`.

use crate::mathutil::ln_choose;

/// Probability the attacker (hashrate `q`) ever erases a deficit of `d`
/// blocks: `(q/p)^d`, or 1 for a majority attacker.
///
/// # Panics
///
/// Panics unless `0 < q < 1`.
pub fn catch_up(q: f64, d: u64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "attacker hashrate must be in (0,1)");
    let p = 1.0 - q;
    if q >= p {
        return 1.0;
    }
    (q / p).powi(d as i32)
}

/// Probability a double-spend succeeds against a merchant waiting for `z`
/// confirmations (Rosenfeld's closed form).
///
/// # Panics
///
/// Panics unless `0 < q < 1`.
pub fn attack_success(q: f64, z: u64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "attacker hashrate must be in (0,1)");
    if q >= 0.5 {
        return 1.0;
    }
    if z == 0 {
        return 1.0;
    }
    let p = 1.0 - q;
    let mut sum = 0.0;
    for m in 0..=z {
        let ln_c = ln_choose(m + z - 1, m);
        let term = (ln_c + (z as f64) * p.ln() + (m as f64) * q.ln()).exp()
            - (ln_c + (z as f64) * q.ln() + (m as f64) * p.ln()).exp();
        sum += term;
    }
    (1.0 - sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// Negative-binomial probability that the attacker has mined exactly `m`
    /// blocks by the time the honest chain mined `z`:
    /// `NB(m; z, q) = C(m + z - 1, m) p^z q^m`.
    fn attacker_progress_pmf(m: u64, z: u64, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "attacker hashrate must be in (0,1)");
        assert!(z > 0, "z must be positive");
        let p = 1.0 - q;
        (ln_choose(m + z - 1, m) + (z as f64) * p.ln() + (m as f64) * q.ln()).exp()
    }

    /// Hand-computable exact values of the closed form.
    #[test]
    fn exact_small_cases() {
        // q=0.1, z=1: 1 - (p - q) = 2q = 0.2.
        close(attack_success(0.1, 1), 0.2, 1e-12);
        // q=0.1, z=2: 1 - [(p²−q²) + 2(p²q − q²p)] = 0.056.
        close(attack_success(0.1, 2), 0.056, 1e-12);
        // q=0.3, z=2: 1 - [0.4 + 0.168] = 0.432.
        close(attack_success(0.3, 2), 0.432, 1e-12);
        // q arbitrary, z=1: always 2q (for q < 1/2).
        close(attack_success(0.25, 1), 0.5, 1e-12);
    }

    #[test]
    fn closed_form_matches_probabilistic_sum() {
        // r(z) = Σ_m NB(m; z, q) · win(m), win = 1 for m > z,
        // (q/p)^{z-m} otherwise.
        for (q, z) in [(0.1, 3u64), (0.25, 5), (0.4, 4)] {
            let closed = attack_success(q, z);
            let mut sum = 0.0;
            for m in 0..(z * 40 + 400) {
                let win = if m > z { 1.0 } else { catch_up(q, z - m) };
                sum += attacker_progress_pmf(m, z, q) * win;
            }
            close(closed, sum, 1e-9);
        }
    }

    #[test]
    fn nb_pmf_sums_to_one() {
        for (q, z) in [(0.1, 3u64), (0.3, 6), (0.45, 2)] {
            let total: f64 = (0..5000).map(|m| attacker_progress_pmf(m, z, q)).sum();
            close(total, 1.0, 1e-9);
        }
    }

    #[test]
    fn nb_pmf_known_values() {
        // NB(0; z, q) = p^z.
        close(attacker_progress_pmf(0, 4, 0.25), 0.75f64.powi(4), 1e-12);
        // NB(1; 1, q) = pq.
        close(attacker_progress_pmf(1, 1, 0.25), 0.75 * 0.25, 1e-12);
    }

    #[test]
    fn exceeds_nakamoto_but_same_order() {
        // Rosenfeld's exact NB model gives the attacker strictly more
        // success probability than Nakamoto's Poisson approximation (the
        // approximation under-counts attacker progress), but stays within
        // the same order of magnitude.
        for q in [0.1, 0.2, 0.3] {
            for z in [1u64, 2, 4, 6, 8] {
                let r = attack_success(q, z);
                let n = crate::nakamoto::attack_success(q, z);
                assert!(r >= n * 0.95, "q={q} z={z}: {r} vs {n}");
                // The gap widens with z (approximation error compounds) but
                // stays within a small constant factor in the useful range.
                assert!(r <= n * 5.0, "q={q} z={z}: {r} vs {n}");
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_z() {
        for q in [0.1, 0.3, 0.45] {
            let mut last = 1.1;
            for z in 0..25 {
                let v = attack_success(q, z);
                assert!(v <= last + 1e-12, "q={q} z={z}");
                last = v;
            }
        }
    }

    #[test]
    fn monotone_increasing_in_q() {
        for z in [1u64, 3, 6] {
            let mut last = 0.0;
            for i in 1..10 {
                let q = i as f64 * 0.05;
                let v = attack_success(q, z);
                assert!(v >= last - 1e-12, "q={q} z={z}");
                last = v;
            }
        }
    }

    #[test]
    fn majority_always_wins() {
        assert_eq!(attack_success(0.5, 50), 1.0);
        assert_eq!(catch_up(0.6, 10), 1.0);
    }

    #[test]
    fn catch_up_values() {
        let q = 0.2f64;
        let ratio: f64 = q / (1.0 - q);
        assert_eq!(catch_up(q, 0), 1.0);
        for d in 1..10u64 {
            close(catch_up(q, d), ratio.powi(d as i32), 1e-15);
        }
    }

    #[test]
    fn risk_tables_require_at_least_nakamotos_wait() {
        // Because the exact model gives the attacker more probability mass,
        // the required confirmation count at equal risk is >= Nakamoto's —
        // this reproduces the headline discrepancy of Rosenfeld's paper
        // (q=0.3 at 0.1% risk needs 32 confirmations, not Nakamoto's 24).
        let wait = |success: fn(f64, u64) -> f64, q: f64, cap: u64| {
            (0..=cap).find(|&z| success(q, z) < 0.001)
        };
        for q in [0.1, 0.2, 0.3] {
            let r = wait(attack_success, q, 500).unwrap();
            let n = wait(crate::nakamoto::attack_success, q, 500).unwrap();
            assert!(r >= n, "q={q}: rosenfeld {r} < nakamoto {n}");
            assert!(r <= n + 10, "q={q}: rosenfeld {r} vs nakamoto {n}");
        }
        assert_eq!(wait(attack_success, 0.3, 500), Some(32));
        assert_eq!(wait(crate::nakamoto::attack_success, 0.3, 500), Some(24));
        assert_eq!(wait(attack_success, 0.5, 100), None);
    }

    #[test]
    fn six_conf_risk_is_small_for_ten_percent() {
        // The security bar BTCFast claims to match.
        let p6 = attack_success(0.1, 6);
        assert!(p6 < 0.001, "p6 = {p6}");
    }
}
