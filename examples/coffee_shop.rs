//! The paper's motivating scenario: a coffee shop taking many small BTC
//! payments over a morning, all against one escrow.
//!
//! Shows the amortization behind the "no extra operation fee" claim: the
//! escrow is funded once, every cup is a sub-second 0-conf acceptance, and
//! the PSC-side gas per cup trends to the per-payment registration cost.
//!
//! ```text
//! cargo run --example coffee_shop
//! ```

use btcfast_suite::protocol::fees::{honest_cost_per_payment, GasUsage};
use btcfast_suite::protocol::{FastPaySession, SessionConfig};

fn main() {
    let cups = 12u64;
    let cup_price_sats = 30_000; // ~a coffee at the paper's exchange rates

    let config = SessionConfig {
        escrow_deposit: 10_000_000, // covers many cups of collateral
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 1234);

    println!("The Busy Bean — BTCFast point of sale");
    println!("=====================================");
    println!(
        "escrow funded once: {} PSC units (gas {})",
        10_000_000, session.deposit_gas
    );
    println!();

    let mut total_wait = 0.0;
    let mut total_gas = session.deposit_gas;
    let mut worst_wait: f64 = 0.0;

    for cup in 1..=cups {
        let report = session
            .run_fast_payment(cup_price_sats)
            .expect("coffee payment");
        assert!(report.accepted, "cup {cup} rejected: {:?}", report.reject);
        let wait = report.waiting.as_secs_f64();
        total_wait += wait;
        worst_wait = worst_wait.max(wait);
        total_gas += report.registration_gas;
        println!(
            "cup {cup:>2}: {:>7} sats, accepted in {:.3} s (registration gas {})",
            cup_price_sats, wait, report.registration_gas
        );
        // The network mines on; the shop's earlier cups confirm behind the
        // scenes while new customers order.
        session.mine_public_block().expect("block connects");
    }

    let merchant_balance = session
        .merchant
        .btc_wallet()
        .balance(&session.btc)
        .to_sats();
    println!();
    println!("cups served          : {cups}");
    println!("mean acceptance wait : {:.3} s", total_wait / cups as f64);
    println!("worst acceptance wait: {worst_wait:.3} s");
    println!("merchant BTC balance : {merchant_balance} sats");

    // Fee accounting: what did BTCFast cost on top of plain BTC?
    let usage = GasUsage {
        deposit: session.deposit_gas,
        open_payment: total_gas.saturating_sub(session.deposit_gas) / cups,
        close_payment: 45_000, // typical close (measured in E4)
        withdraw: 50_000,
        ..Default::default()
    };
    let per_cup = honest_cost_per_payment(&session.config, &usage, cups);
    println!();
    println!(
        "per-cup cost: {:.2} sats BTC fee + {:.4} sats PSC overhead (ETH-like)",
        per_cup.btc_fee_sats, per_cup.psc_overhead_sats
    );
    let per_cup_eos = honest_cost_per_payment(&SessionConfig::eos_flavored(), &usage, cups);
    println!(
        "per-cup cost: {:.2} sats BTC fee + {:.4} sats PSC overhead (EOS-like)",
        per_cup_eos.btc_fee_sats, per_cup_eos.psc_overhead_sats
    );
    assert_eq!(per_cup_eos.psc_overhead_sats, 0.0);
    println!("\nOK: every cup accepted sub-second; EOS-like overhead is exactly zero.");
}
