//! Anatomy of the inter-blockchain machinery, without the session sugar:
//! drive the BTC simulator, the PSC chain, and the PayJudger contract
//! directly through their public APIs.
//!
//! ```text
//! cargo run --example cross_chain_anatomy
//! ```

use btcfast_suite::btcsim::chain::Chain;
use btcfast_suite::btcsim::miner::Miner;
use btcfast_suite::btcsim::params::ChainParams;
use btcfast_suite::btcsim::spv::SpvEvidence;
use btcfast_suite::btcsim::wallet::Wallet;
use btcfast_suite::btcsim::Amount;
use btcfast_suite::crypto::keys::KeyPair;
use btcfast_suite::crypto::Hash256;
use btcfast_suite::payjudger::client::CALL_GAS_LIMIT;
use btcfast_suite::payjudger::contract::PayJudger;
use btcfast_suite::payjudger::evidence::EvidenceBundle;
use btcfast_suite::payjudger::types::JudgerConfig;
use btcfast_suite::payjudger::{Call, PayJudgerClient};
use btcfast_suite::pscsim::params::PscParams;
use btcfast_suite::pscsim::PscChain;
use std::sync::Arc;

fn main() {
    // ---------------------------------------------------------------- BTC
    println!("[1] Bitcoin side: mine a funded chain and a merchant payment");
    let params = ChainParams::regtest();
    let mut btc = Chain::new(params.clone());
    let customer_btc = Wallet::from_seed(b"anatomy customer");
    let merchant_btc = Wallet::from_seed(b"anatomy merchant");
    let mut miner = Miner::new(params.clone(), customer_btc.address());

    for i in 1..=2u64 {
        let block = miner.mine_block(&btc, vec![], i * 600);
        btc.submit_block(block).unwrap();
    }
    println!(
        "    chain height {}, customer balance {}",
        btc.height(),
        customer_btc.balance(&btc)
    );

    let pay = customer_btc
        .create_payment(
            &btc,
            merchant_btc.address(),
            Amount::from_sats(2_500_000).unwrap(),
            Amount::from_sats(800).unwrap(),
            Some(b"escrow:0/payment:0".to_vec()), // OP_RETURN binding
        )
        .unwrap();
    let txid = pay.txid();
    let b3 = miner.mine_block(&btc, vec![pay], 1800);
    btc.submit_block(b3).unwrap();
    for i in 4..=9u64 {
        let block = miner.mine_block(&btc, vec![], i * 600);
        btc.submit_block(block).unwrap();
    }
    println!(
        "    payment {} buried under {} confirmations",
        txid,
        btc.confirmations(&txid).unwrap()
    );

    // ---------------------------------------------------------------- PSC
    println!("[2] PSC side: deploy PayJudger, fund an escrow");
    let mut psc = PscChain::new(PscParams::ethereum_like());
    psc.register_code(Arc::new(PayJudger));
    let customer = KeyPair::from_seed(b"anatomy psc customer");
    let merchant = KeyPair::from_seed(b"anatomy psc merchant");
    psc.faucet(customer.address().into(), 1_000_000_000_000);
    psc.faucet(merchant.address().into(), 1_000_000_000_000);

    let judger_config = JudgerConfig {
        checkpoint: Hash256::ZERO,
        min_target_bits: params.pow_limit_bits.0,
        challenge_window_secs: 600,
        min_evidence_blocks: 6,
    };
    let deploy = PayJudgerClient::deploy_tx(&customer, 0, &judger_config, 20);
    let deploy_hash = psc.submit_transaction(deploy).unwrap();
    psc.produce_block(15);
    let contract = psc
        .receipt(&deploy_hash)
        .unwrap()
        .contract_address
        .expect("deployed");
    let judger = PayJudgerClient::new(contract, 20);
    println!("    PayJudger at {contract}");
    let customer_id = customer.address().into();

    let deposit = Call::Deposit(5_000_000);
    psc.submit_transaction(judger.tx(&customer, 1, CALL_GAS_LIMIT, &deposit))
        .unwrap();
    psc.produce_block(30);
    let escrow = judger.escrow(&psc, customer_id).unwrap();
    println!(
        "    escrow balance {} / locked {}",
        escrow.balance, escrow.locked
    );

    // ------------------------------------------------------- registration
    println!("[3] Register the BTC payment intent with the escrow");
    let open = Call::OpenPayment(merchant.address().into(), txid, 2_500_000, 3_000_000);
    let open_hash = psc
        .submit_transaction(judger.tx(&customer, 2, CALL_GAS_LIMIT, &open))
        .unwrap();
    psc.produce_block(45);
    let payment_id =
        PayJudgerClient::payment_id_from(psc.receipt(&open_hash).unwrap()).expect("opened");
    println!("    payment id {payment_id}, collateral 3,000,000 locked");

    // ----------------------------------------------------------- dispute
    println!("[4] A (frivolous) dispute: the merchant claims non-payment");
    let dispute = Call::Dispute(customer_id, payment_id);
    psc.submit_transaction(judger.tx(&merchant, 0, CALL_GAS_LIMIT, &dispute))
        .unwrap();
    psc.produce_block(60);

    println!("[5] The customer answers with PoW evidence from the BTC chain");
    let evidence = SpvEvidence::from_chain(&btc, 1, btc.height(), Some(&txid));
    println!(
        "    segment of {} headers, inclusion proof depth {}",
        evidence.segment.len(),
        evidence.inclusion.as_ref().unwrap().proof.depth()
    );
    let submit = Call::SubmitEvidence(customer_id, payment_id, EvidenceBundle(evidence));
    let submit_hash = psc
        .submit_transaction(judger.tx(&customer, 3, CALL_GAS_LIMIT, &submit))
        .unwrap();
    psc.produce_block(75);
    let receipt = psc.receipt(&submit_hash).unwrap();
    println!(
        "    evidence verified on-chain for {} gas",
        receipt.gas_used
    );

    println!("[6] After the evidence window, anyone triggers judgment");
    psc.produce_block(800); // window (600 s) passes
    let judge = Call::Judge(customer_id, payment_id);
    let judge_hash = psc
        .submit_transaction(judger.tx(&merchant, 1, CALL_GAS_LIMIT, &judge))
        .unwrap();
    psc.produce_block(815);
    let verdict = PayJudgerClient::verdict_from(psc.receipt(&judge_hash).unwrap()).unwrap();
    println!("    verdict: {verdict:?}");

    let escrow = judger.escrow(&psc, customer_id).unwrap();
    println!(
        "    escrow after judgment: balance {} / locked {}",
        escrow.balance, escrow.locked
    );
    assert_eq!(escrow.locked, 0);
    assert_eq!(escrow.balance, 5_000_000); // honest customer keeps everything
    println!("\nOK: the PoW judgment dismissed the frivolous dispute.");
}
