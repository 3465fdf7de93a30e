//! The rolling-checkpoint extension: bounding dispute evidence size over an
//! escrow's lifetime.
//!
//! Evidence verification gas grows linearly with header count (E5), so a
//! long-lived escrow anchored at its deployment-time checkpoint gets ever
//! more expensive to defend. The `advance_checkpoint` extension lets anyone
//! roll the anchor forward with a deep header segment; new payments pin the
//! fresh anchor and their disputes need only short proofs.
//!
//! ```text
//! cargo run --example rolling_checkpoint
//! ```

use btcfast_suite::btcsim::spv::SpvEvidence;
use btcfast_suite::netsim::time::SimTime;
use btcfast_suite::payjudger::evidence::EvidenceBundle;
use btcfast_suite::payjudger::Call;
use btcfast_suite::protocol::{FastPaySession, Party, SessionConfig};

fn main() {
    let mut session = FastPaySession::new(SessionConfig::default(), 2026);

    println!("Rolling checkpoint — bounding evidence size");
    println!("===========================================");
    let checkpoint = session.judger.checkpoint(&session.psc).unwrap();
    println!("anchor at deployment : {} (genesis)", checkpoint.hash);

    // The Bitcoin chain grows for a while (an escrow lives for months).
    for _ in 0..20 {
        session.advance_clock(SimTime::from_secs(600));
        session.mine_public_block().expect("block connects");
    }
    let full_depth = session.btc.height();
    println!("BTC height now       : {full_depth}");
    println!(
        "full-genesis evidence: {} headers ≈ {} gas to verify",
        full_depth,
        full_depth * 2_400 + 21_000
    );

    // Anyone rolls the anchor forward (Δ = 6 safety margin below the tip).
    let segment = SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), None);
    let advance = Call::AdvanceCheckpoint(EvidenceBundle(segment));
    let receipt = session
        .call(Party::Merchant, advance)
        .expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    let checkpoint = session.judger.checkpoint(&session.psc).unwrap();
    println!(
        "\nanchor advanced to   : height {} ({} headers absorbed, {} gas once)",
        checkpoint.advanced_blocks, checkpoint.advanced_blocks, receipt.gas_used
    );

    // A new payment now disputes with a short segment.
    let report = session.run_fast_payment(500_000).expect("payment");
    assert!(report.accepted);
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");
    for _ in 0..6 {
        session.advance_clock(SimTime::from_secs(600));
        session.mine_public_block().expect("block connects");
    }
    let anchor_height = checkpoint.advanced_blocks;
    let short = SpvEvidence::from_chain(
        &session.btc,
        anchor_height + 1,
        session.btc.height(),
        Some(&report.txid),
    );
    println!(
        "new payment's evidence: {} headers (vs {} from genesis)",
        short.segment.len(),
        session.btc.height()
    );
    assert!(short.segment.len() < session.btc.height() as usize / 2);
    assert!(short.inclusion.is_some());
    println!("\nOK: post-advancement disputes verify a fraction of the headers.");
}
