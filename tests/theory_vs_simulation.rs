//! Integration: the analytical models against the simulators — each theory
//! curve must match what the machinery actually does.

use btcfast_suite::analysis::waiting::ConfirmationWait;
use btcfast_suite::analysis::{nakamoto, rosenfeld};
use btcfast_suite::btcsim::attack::race_probability_monte_carlo;
use btcfast_suite::protocol::{FastPaySession, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn race_simulation_matches_rosenfeld_theory() {
    let mut rng = StdRng::seed_from_u64(1);
    for (q, z) in [(0.1, 2u64), (0.2, 3), (0.3, 4)] {
        let theory = rosenfeld::attack_success(q, z);
        let simulated = race_probability_monte_carlo(q, z, 60_000, &mut rng);
        let rel = (simulated - theory).abs() / theory;
        assert!(
            rel < 0.15,
            "q={q} z={z}: simulated {simulated} vs theory {theory} (rel {rel})"
        );
    }
}

#[test]
fn nakamoto_is_a_lower_bound_on_simulation() {
    let mut rng = StdRng::seed_from_u64(2);
    for (q, z) in [(0.15, 3u64), (0.25, 4)] {
        let nak = nakamoto::attack_success(q, z);
        let simulated = race_probability_monte_carlo(q, z, 40_000, &mut rng);
        assert!(
            simulated > nak * 0.8,
            "q={q} z={z}: simulated {simulated} vs nakamoto {nak}"
        );
    }
}

#[test]
fn baseline_waiting_matches_erlang_mean() {
    // Average simulated 6-conf waits over several sessions and compare to
    // the Erlang mean (3600 s at 600 s blocks).
    let trials = 12;
    let mut total = 0.0;
    for t in 0..trials {
        let mut session = FastPaySession::new(SessionConfig::default(), 400 + t);
        let report = session
            .run_baseline_payment(500_000, 6)
            .expect("baseline payment");
        total += report.waiting.as_secs_f64();
    }
    let mean = total / trials as f64;
    let theory = ConfirmationWait::new(6, 600.0).mean_secs();
    // Std-error at 12 trials is ~±425 s; accept a generous band.
    assert!(
        (theory * 0.5..theory * 1.6).contains(&mean),
        "simulated mean {mean} vs theory {theory}"
    );
}

#[test]
fn full_machinery_attack_rate_tracks_theory_at_high_hashrate() {
    // At q = 0.75 with a 25-block horizon, theory says near-certain race
    // success; the full block-level machinery must agree.
    let trials = 4;
    let mut wins = 0;
    for t in 0..trials {
        let config = SessionConfig {
            challenge_window_secs: 100_000,
            ..SessionConfig::default()
        };
        let mut session = FastPaySession::new(config, 500 + t);
        let report = session
            .run_double_spend_attack(1_000_000, 0.75, 25)
            .expect("attack");
        wins += report.attacker_won_race as u32;
    }
    assert_eq!(wins, trials as u32, "majority attacker must always win");
}
