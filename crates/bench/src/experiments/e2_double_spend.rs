//! E2 — double-spend success probability vs confirmations (claim C2
//! context): Nakamoto theory, Rosenfeld theory, and Monte-Carlo simulation
//! on the race model, for attacker hashrates q ∈ {0.1, 0.2, 0.3, 0.4}.

use crate::table::{prob, Table};
use btcfast_analysis::{nakamoto, rosenfeld};
use btcfast_btcsim::attack::race_probability_monte_carlo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E2.
pub fn run(quick: bool) -> Vec<Table> {
    let trials = if quick { 2_000 } else { 50_000 };
    let z_values: &[u64] = if quick {
        &[0, 1, 2, 6]
    } else {
        &[0, 1, 2, 3, 4, 5, 6, 8, 10]
    };
    let mut tables = Vec::new();
    for q in [0.1, 0.2, 0.3, 0.4] {
        let mut table = Table::new(
            &format!("E2 — double-spend success probability, q = {q}"),
            &["z (confirmations)", "Nakamoto", "Rosenfeld", "Monte-Carlo"],
        );
        let mut rng = StdRng::seed_from_u64((q * 1000.0) as u64);
        for &z in z_values {
            let nak = nakamoto::attack_success(q, z);
            let ros = rosenfeld::attack_success(q, z);
            let mc = if z == 0 {
                1.0
            } else {
                race_probability_monte_carlo(q, z, trials, &mut rng)
            };
            table.push(vec![z.to_string(), prob(nak), prob(ros), prob(mc)]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_theory_and_simulation_agree() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 4);
        // Beyond smoke: re-check one cell numerically.
        let ros = btcfast_analysis::rosenfeld::attack_success(0.1, 1);
        assert!((ros - 0.2).abs() < 1e-12);
    }
}
