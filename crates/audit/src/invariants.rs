//! Cross-cutting invariants checked after every fuzz step.
//!
//! These are the properties the paper's escrow argument rests on, stated
//! as executable checks:
//!
//! * **value conservation** — every satoshi in the UTXO set traces to a
//!   coinbase subsidy of the active chain, through any number of reorgs;
//!   every PSC native unit traces to a faucet mint, through disputes,
//!   payouts, and fees;
//! * **escrow solvency** — the judger contract's native balance always
//!   covers the sum of escrow books, and no escrow ever has more locked
//!   than it holds;
//! * **monotone finality** — tip work never decreases, and a
//!   transaction's confirmation count is consistent with active-chain
//!   membership.

use crate::codec_fuzz::shared_btc;
use crate::source::ByteSource;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::{Chain, U256};
use btcfast_crypto::{Hash256, KeyPair};
use btcfast_payjudger::types::JudgerConfig;
use btcfast_payjudger::{DisputeVerdict, PayJudger, PayJudgerClient, PaymentState};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::params::PscParams;
use btcfast_pscsim::tx::{PscTransaction, Receipt};
use btcfast_pscsim::PscChain;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Bitcoin-side chain invariants
// ---------------------------------------------------------------------------

/// Checks the standing invariants of a [`Chain`]; called after every fuzz
/// step by the differential and invariant engines.
pub fn check_chain(chain: &Chain) -> Result<(), String> {
    // Value conservation: the UTXO set holds exactly the subsidies of the
    // active heights (fees move value between outputs but never mint).
    let expected: u64 = (1..=chain.height())
        .map(|h| chain.params().subsidy_at(h))
        .sum();
    let total = chain
        .utxo()
        .total_value()
        .ok_or("UTXO total overflowed the money supply")?;
    if total.to_sats() != expected {
        return Err(format!(
            "value not conserved: UTXO set holds {} sats, active subsidies total {expected}",
            total.to_sats()
        ));
    }

    // Active-chain bookkeeping: every active hash resolves, agrees with the
    // height index, and its coinbase's confirmation count equals its depth.
    let active = chain.active_hashes();
    for (index, hash) in active.iter().enumerate() {
        let height = index as u64 + 1;
        if !chain.is_active(hash) {
            return Err(format!("active hash at height {height} is not is_active"));
        }
        if chain.block_height(hash) != Some(height) {
            return Err(format!("height index disagrees for active block {height}"));
        }
        let block = chain
            .block(hash)
            .ok_or_else(|| format!("active block {height} missing from the store"))?;
        let depth = chain.height() - height + 1;
        for tx in &block.transactions {
            let confirmations = chain.confirmations(&tx.txid());
            if confirmations != Some(depth) {
                return Err(format!(
                    "tx in active block {height} reports {confirmations:?} confirmations, expected {depth}"
                ));
            }
        }
    }
    match active.last() {
        Some(last) => {
            if *last != chain.tip_hash() {
                return Err("tip hash is not the last active hash".into());
            }
        }
        None => {
            if chain.tip_hash() != Hash256::ZERO {
                return Err("empty chain reports a non-genesis tip".into());
            }
        }
    }
    Ok(())
}

/// Fuzzes mining schedules (forks included) checking [`check_chain`] and
/// work monotonicity after every connected block.
pub fn invariant_chain_conservation(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let params = ChainParams::regtest();
    let mut chain = Chain::new(params.clone());
    let mut miner = Miner::new(params, btcfast_crypto::keys::Address([0x77; 20]));

    let mut prev_work = U256::ZERO;
    let steps = 4 + src.choice(9);
    for _ in 0..steps {
        // Mostly extend the tip; sometimes fork a few blocks back.
        let parent = if src.u8().is_multiple_of(4) && chain.height() > 1 {
            let back = 1 + src.choice(chain.height() as usize - 1) as u64;
            *chain
                .active_hashes()
                .get((chain.height() - back) as usize - 1)
                .ok_or("fork point out of range")?
        } else {
            chain.tip_hash()
        };
        let parent_time = if parent == Hash256::ZERO {
            0
        } else {
            chain.block(&parent).ok_or("parent missing")?.header.time
        };
        let time = (parent_time + u64::from(src.u32() % 1801) + 600).saturating_sub(600);
        let block = miner.mine_block_on(&chain, parent, Vec::new(), time);
        let _ = chain.submit_block(block);

        check_chain(&chain)?;
        let work = chain.tip_work();
        if work < prev_work {
            return Err("tip work decreased".into());
        }
        prev_work = work;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Escrow-dispute invariants
// ---------------------------------------------------------------------------

/// Everything the escrow audit needs to check the books after each step.
struct EscrowAudit<'a> {
    psc: &'a PscChain,
    judger: &'a PayJudgerClient,
    customer: AccountId,
    merchant: AccountId,
    minted: u128,
}

impl EscrowAudit<'_> {
    fn check(&self) -> Result<(), String> {
        let escrow = self
            .judger
            .escrow(self.psc, self.customer)
            .map_err(|e| format!("escrow view failed: {e:?}"))?;
        if escrow.locked > escrow.balance {
            return Err(format!(
                "escrow insolvent: locked {} exceeds balance {}",
                escrow.locked, escrow.balance
            ));
        }
        let contract_balance = self.psc.balance_of(&self.judger.contract);
        if contract_balance != escrow.balance {
            return Err(format!(
                "contract holds {contract_balance} native units but the escrow book says {}",
                escrow.balance
            ));
        }
        let total = self.psc.balance_of(&self.customer)
            + self.psc.balance_of(&self.merchant)
            + contract_balance
            + self.psc.balance_of(&self.psc.validator());
        if total != self.minted {
            return Err(format!(
                "PSC value not conserved: {total} on the books vs {} minted",
                self.minted
            ));
        }
        Ok(())
    }
}

const WINDOW: u64 = 600;
const FUND: u128 = 1_000_000_000_000;

/// Fuzzes deposit → open → {ack, close, dispute/judge} escrow scripts,
/// checking solvency, conservation, and verdict/payout consistency after
/// every transaction.
pub fn invariant_escrow_dispute(bytes: &[u8]) -> Result<(), String> {
    let shared = shared_btc();
    let mut src = ByteSource::new(bytes);

    let customer_key = KeyPair::from_seed(b"audit escrow customer");
    let merchant_key = KeyPair::from_seed(b"audit escrow merchant");
    let customer: AccountId = customer_key.address().into();
    let merchant: AccountId = merchant_key.address().into();

    let params = PscParams::ethereum_like();
    let gas_price = params.gas_price;
    let mut psc = PscChain::new(params);
    psc.register_code(Arc::new(PayJudger));
    let mut minted = 0u128;
    minted += psc.faucet(customer, FUND);
    minted += psc.faucet(merchant, FUND);

    let min_evidence_blocks = 1 + src.choice(3) as u64;
    let config = JudgerConfig {
        checkpoint: Hash256::ZERO,
        min_target_bits: ChainParams::regtest().pow_limit_bits.0,
        challenge_window_secs: WINDOW,
        min_evidence_blocks,
    };
    let deploy = PayJudgerClient::deploy_tx(&customer_key, 0, &config, gas_price);
    let deploy_hash = psc
        .submit_transaction(deploy)
        .map_err(|e| format!("deploy rejected: {e:?}"))?;
    let mut time = 15u64;
    psc.produce_block(time);
    let contract = psc
        .receipt(&deploy_hash)
        .and_then(|r| r.contract_address)
        .ok_or("judger deploy yielded no address")?;
    let judger = PayJudgerClient::new(contract, gas_price);

    let run = |psc: &mut PscChain, time: &mut u64, tx: PscTransaction| -> Result<Receipt, String> {
        let hash = psc
            .submit_transaction(tx)
            .map_err(|e| format!("submit rejected: {e:?}"))?;
        *time += 15;
        psc.produce_block(*time);
        Ok(psc.receipt(&hash).ok_or("no receipt")?.clone())
    };
    macro_rules! audit {
        () => {
            EscrowAudit {
                psc: &psc,
                judger: &judger,
                customer,
                merchant,
                minted,
            }
            .check()?
        };
    }

    // The disputed Bitcoin payment: a real, provable txid or a fabricated
    // one that no inclusion proof can cover.
    let real_payment = src.bool();
    let paid_height = 1 + src.choice(6) as u64; // heights 1..=6
    let btc_txid = if real_payment {
        shared.txids[paid_height as usize - 1]
    } else {
        let mut fake = [0u8; 32];
        src.fill(&mut fake);
        Hash256(fake)
    };

    // Deposit.
    let deposit = 1_000 + u128::from(src.u32());
    let nonce = psc.nonce_of(&customer);
    let receipt = run(
        &mut psc,
        &mut time,
        judger.deposit_tx(&customer_key, nonce, deposit),
    )?;
    if !receipt.status.is_success() {
        return Err(format!("deposit reverted: {:?}", receipt.status));
    }
    audit!();

    // Open a payment; sometimes over-collateralised to probe the revert path.
    let overdraw = src.u8().is_multiple_of(8);
    let collateral = if overdraw {
        deposit + 1 + u128::from(src.u16())
    } else {
        1 + u128::from(src.u64()) % deposit
    };
    let nonce = psc.nonce_of(&customer);
    let receipt = run(
        &mut psc,
        &mut time,
        judger.open_payment_tx(&customer_key, nonce, merchant, btc_txid, 10_000, collateral),
    )?;
    audit!();
    if overdraw {
        if receipt.status.is_success() {
            return Err("over-collateralised open_payment succeeded".into());
        }
        let escrow = judger
            .escrow(&psc, customer)
            .map_err(|e| format!("{e:?}"))?;
        if escrow.locked != 0 || escrow.balance != deposit {
            return Err("failed open_payment left residue in the escrow book".into());
        }
        return Ok(());
    }
    if !receipt.status.is_success() {
        return Err(format!("open_payment reverted: {:?}", receipt.status));
    }
    let payment_id = PayJudgerClient::payment_id_from(&receipt).ok_or("no payment id")?;
    let opened_at = time;

    match src.u8() % 3 {
        // Merchant acknowledges: collateral unlocks, customer may withdraw.
        0 => {
            let nonce = psc.nonce_of(&merchant);
            let receipt = run(
                &mut psc,
                &mut time,
                judger.ack_payment_tx(&merchant_key, nonce, customer, payment_id),
            )?;
            if !receipt.status.is_success() {
                return Err(format!("ack reverted: {:?}", receipt.status));
            }
            audit!();
            let payment = judger
                .payment(&psc, customer, payment_id)
                .map_err(|e| format!("{e:?}"))?;
            if payment.state != PaymentState::Acked {
                return Err(format!("ack left state {:?}", payment.state));
            }
            let withdraw = 1 + u128::from(src.u64()) % deposit;
            let nonce = psc.nonce_of(&customer);
            let receipt = run(
                &mut psc,
                &mut time,
                judger.withdraw_tx(&customer_key, nonce, withdraw),
            )?;
            if !receipt.status.is_success() {
                return Err(format!("withdraw after ack reverted: {:?}", receipt.status));
            }
            audit!();
        }
        // Window lapses undisputed: customer closes.
        1 => {
            while time < opened_at + WINDOW {
                time += 15;
                psc.produce_block(time);
            }
            let nonce = psc.nonce_of(&customer);
            let receipt = run(
                &mut psc,
                &mut time,
                judger.close_payment_tx(&customer_key, nonce, payment_id),
            )?;
            if !receipt.status.is_success() {
                return Err(format!("close reverted: {:?}", receipt.status));
            }
            audit!();
            let payment = judger
                .payment(&psc, customer, payment_id)
                .map_err(|e| format!("{e:?}"))?;
            if payment.state != PaymentState::Closed {
                return Err(format!("close left state {:?}", payment.state));
            }
        }
        // Dispute: evidence duel, judgment, payout.
        _ => {
            let nonce = psc.nonce_of(&merchant);
            let receipt = run(
                &mut psc,
                &mut time,
                judger.dispute_tx(&merchant_key, nonce, customer, payment_id),
            )?;
            if !receipt.status.is_success() {
                return Err(format!("dispute reverted: {:?}", receipt.status));
            }
            audit!();

            // Customer may answer with inclusion evidence…
            let customer_submits = !src.u8().is_multiple_of(4);
            let customer_tip = 6 + src.choice(5) as u64; // heights 6..=10
            if customer_submits {
                let evidence =
                    SpvEvidence::from_chain(&shared.chain, 1, customer_tip, Some(&btc_txid));
                let nonce = psc.nonce_of(&customer);
                let receipt = run(
                    &mut psc,
                    &mut time,
                    judger.submit_evidence_tx(&customer_key, nonce, customer, payment_id, evidence),
                )?;
                if !receipt.status.is_success() {
                    return Err(format!("customer evidence rejected: {:?}", receipt.status));
                }
                audit!();
            }
            // …and the merchant with an absence segment.
            let merchant_submits = src.bool();
            let merchant_tip = 2 + src.choice(9) as u64; // heights 2..=10
            if merchant_submits {
                let evidence = SpvEvidence::from_chain(&shared.chain, 1, merchant_tip, None);
                let nonce = psc.nonce_of(&merchant);
                let receipt = run(
                    &mut psc,
                    &mut time,
                    judger.submit_evidence_tx(&merchant_key, nonce, customer, payment_id, evidence),
                )?;
                if !receipt.status.is_success() {
                    return Err(format!("merchant evidence rejected: {:?}", receipt.status));
                }
                audit!();
            }

            // Past the evidence window, anyone may judge.
            let disputed = judger
                .payment(&psc, customer, payment_id)
                .map_err(|e| format!("{e:?}"))?;
            while time < disputed.disputed_at + WINDOW {
                time += 15;
                psc.produce_block(time);
            }
            let merchant_before = psc.balance_of(&merchant);
            let nonce = psc.nonce_of(&customer);
            let receipt = run(
                &mut psc,
                &mut time,
                judger.judge_tx(&customer_key, nonce, customer, payment_id),
            )?;
            if !receipt.status.is_success() {
                return Err(format!("judge reverted: {:?}", receipt.status));
            }
            let verdict = PayJudgerClient::verdict_from(&receipt).ok_or("no verdict")?;
            audit!();

            // The verdict must match the contract's stated rule applied to
            // the evidence actually on file.
            let payment = judger
                .payment(&psc, customer, payment_id)
                .map_err(|e| format!("{e:?}"))?;
            let customer_ok = payment.customer_evidence.includes_tx
                && payment.customer_evidence.tx_confirmations >= min_evidence_blocks
                && btcfast_payjudger::evidence::heavier(
                    &payment.customer_evidence,
                    &payment.merchant_evidence,
                ) != std::cmp::Ordering::Less;
            let expected = if customer_ok {
                DisputeVerdict::CustomerWins
            } else {
                DisputeVerdict::MerchantWins
            };
            if verdict != expected {
                return Err(format!(
                    "verdict {verdict:?} contradicts the evidence on file (expected {expected:?})"
                ));
            }
            // A fabricated txid can never clear the customer.
            if !real_payment && verdict == DisputeVerdict::CustomerWins {
                return Err("customer cleared on a txid that is not in any block".into());
            }

            let escrow = judger
                .escrow(&psc, customer)
                .map_err(|e| format!("{e:?}"))?;
            match verdict {
                DisputeVerdict::CustomerWins => {
                    if payment.state != PaymentState::CustomerCleared {
                        return Err(format!("customer win left state {:?}", payment.state));
                    }
                    if escrow.balance != deposit || escrow.locked != 0 {
                        return Err("customer win moved escrow value".into());
                    }
                    if psc.balance_of(&merchant) != merchant_before {
                        return Err("customer win changed the merchant balance".into());
                    }
                }
                DisputeVerdict::MerchantWins => {
                    if payment.state != PaymentState::MerchantPaid {
                        return Err(format!("merchant win left state {:?}", payment.state));
                    }
                    if escrow.balance != deposit - collateral || escrow.locked != 0 {
                        return Err("merchant win did not deduct exactly the collateral".into());
                    }
                    if psc.balance_of(&merchant) != merchant_before + collateral {
                        return Err("merchant was not paid exactly the collateral".into());
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        for seed in 0u8..6 {
            let bytes: Vec<u8> = (0..128)
                .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
                .collect();
            invariant_chain_conservation(&bytes).unwrap();
            invariant_escrow_dispute(&bytes).unwrap();
        }
    }

    #[test]
    fn empty_input_runs_the_default_script() {
        invariant_chain_conservation(&[]).unwrap();
        invariant_escrow_dispute(&[]).unwrap();
    }
}
