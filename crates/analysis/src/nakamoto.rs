//! Nakamoto's double-spend analysis (Bitcoin whitepaper, section 11).
//!
//! The attacker with hashrate fraction `q` secretly mines while the merchant
//! waits for `z` confirmations. Attacker progress is approximated as
//! Poisson with mean `λ = z·q/p`; catching up from deficit `d` succeeds with
//! probability `(q/p)^d`.

use crate::mathutil::poisson_pmf;

/// Probability a double-spend succeeds against a merchant who waits for
/// `z` confirmations, per Nakamoto's formula.
///
/// Returns 1 for `q >= 0.5` (a majority attacker always wins eventually).
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
    let lambda = z as f64 * q / p;
    let ratio = q / p;
    let mut probability = 1.0;
    for k in 0..=z {
        let catch_up = ratio.powi((z - k) as i32);
        probability -= poisson_pmf(k, lambda) * (1.0 - catch_up);
    }
    probability.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// Values published in the Bitcoin whitepaper, section 11.
    #[test]
    fn whitepaper_table_q_10_percent() {
        let expected = [
            (0u64, 1.0),
            (1, 0.2045873),
            (2, 0.0509779),
            (3, 0.0131722),
            (4, 0.0034552),
            (5, 0.0009137),
            (6, 0.0002428),
            (7, 0.0000647),
            (8, 0.0000173),
            (9, 0.0000046),
            (10, 0.0000012),
        ];
        for (z, p) in expected {
            close(attack_success(0.1, z), p, 5e-7);
        }
    }

    #[test]
    fn whitepaper_table_q_30_percent() {
        let expected = [
            (0u64, 1.0),
            (5, 0.1773523),
            (10, 0.0416605),
            (15, 0.0101008),
            (20, 0.0024804),
            (25, 0.0006132),
            (30, 0.0001522),
            (35, 0.0000379),
            (40, 0.0000095),
            (45, 0.0000024),
            (50, 0.0000006),
        ];
        for (z, p) in expected {
            close(attack_success(0.3, z), p, 5e-7);
        }
    }

    #[test]
    fn majority_always_wins() {
        assert_eq!(attack_success(0.5, 100), 1.0);
        assert_eq!(attack_success(0.7, 100), 1.0);
    }

    #[test]
    fn monotone_decreasing_in_z() {
        for q in [0.05, 0.15, 0.25, 0.4] {
            let mut last = 1.1;
            for z in 0..30 {
                let v = attack_success(q, z);
                assert!(v <= last + 1e-12, "q={q} z={z}");
                last = v;
            }
        }
    }

    #[test]
    fn monotone_increasing_in_q() {
        for z in [1u64, 3, 6, 12] {
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
    fn whitepaper_less_than_0_1_percent_table() {
        // Nakamoto: "Solving for P less than 0.1%".
        for (q, z) in [
            (0.10, 5),
            (0.15, 8),
            (0.20, 11),
            (0.25, 15),
            (0.30, 24),
            (0.35, 41),
            (0.40, 89),
            (0.45, 340),
        ] {
            assert!(attack_success(q, z) < 0.001, "q={q} z={z}");
            assert!(attack_success(q, z - 1) >= 0.001, "q={q} z={z}");
        }
    }

    #[test]
    #[should_panic(expected = "hashrate")]
    fn rejects_bad_q() {
        attack_success(0.0, 6);
    }
}
