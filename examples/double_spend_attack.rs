//! A narrated double-spend attack against a BTCFast merchant — and the
//! PoW-based judgment that makes the attacker pay for it.
//!
//! The customer accepts their coffee, then secretly out-mines the network
//! to claw the payment back. The merchant's dispute at PayJudger submits
//! the heavier post-reorg chain as evidence; the judgment forfeits the
//! attacker's collateral.
//!
//! ```text
//! cargo run --example double_spend_attack
//! ```

use btcfast_suite::payjudger::types::DisputeVerdict;
use btcfast_suite::protocol::{FastPaySession, SessionConfig};

fn main() {
    let config = SessionConfig {
        challenge_window_secs: 100_000, // generous dispute window
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 666);

    println!("BTCFast under attack");
    println!("====================");
    let merchant_btc_before = session
        .merchant
        .btc_wallet()
        .balance(&session.btc)
        .to_sats();
    let merchant_psc_before = session.psc.balance_of(&session.merchant.psc_account());

    println!("merchant BTC balance before : {merchant_btc_before} sats");
    println!("merchant PSC balance before : {merchant_psc_before} units");
    println!();
    println!("The customer pays 1,000,000 sats... and controls 80% of the hashrate.");

    let report = session
        .run_double_spend_attack(1_000_000, 0.8, 30)
        .expect("attack scenario");

    println!();
    println!(
        "race: attacker {} after {:.0} s of simulated mining",
        if report.attacker_won_race {
            "OVERTOOK the honest chain"
        } else {
            "gave up"
        },
        report.race_duration.as_secs_f64()
    );
    println!(
        "merchant payment on chain?  : {}",
        if report.merchant_lost_payment {
            "GONE (reorged away)"
        } else {
            "still confirmed"
        }
    );

    if let Some(verdict) = report.verdict {
        println!();
        println!("dispute filed; PoW evidence judged by PayJudger...");
        println!(
            "verdict                     : {:?} ({:.0} s dispute)",
            verdict,
            report.dispute_duration.as_secs_f64()
        );
        assert_eq!(verdict, DisputeVerdict::MerchantWins);
    }

    let merchant_psc_after = session.psc.balance_of(&session.merchant.psc_account());
    let psc_delta = merchant_psc_after as i128 - merchant_psc_before as i128;
    let collateral = session.config.required_collateral(1_000_000) as i128;
    let gas_fees = collateral - psc_delta; // delta = collateral − dispute gas
    println!();
    println!("collateral awarded          : {collateral} units (ratio 1.2)");
    println!("dispute gas fees paid       : {gas_fees} units (loser-pays in a real deployment)");
    println!(
        "merchant payment recovery   : {} sats-equivalent",
        -report.merchant_net_loss_sats
    );
    assert!(report.merchant_compensated);
    assert!(report.merchant_net_loss_sats <= 0);
    println!();
    println!("OK: the double spend succeeded on Bitcoin, and the merchant still came out whole.");
}
