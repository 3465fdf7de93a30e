//! The properties the paper's escrow argument rests on, stated as
//! executable checks:
//!
//! * **value conservation** — every satoshi in the UTXO set traces to a
//!   coinbase subsidy of the active chain, through any number of reorgs
//!   (checked after every step of a fuzzed mining schedule);
//! * **monotone finality** — tip work never decreases, and a
//!   transaction's confirmation count is consistent with active-chain
//!   membership;
//! * **the escrow contract** — [`explore_escrow`] drives PayJudger through
//!   every schedule of calls up to a bound and checks it against a
//!   reference model after each: the calls it takes, its records, its
//!   solvency, PSC value conservation and every judgment.

use crate::codec_fuzz::shared_btc;
use crate::source::ByteSource;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::{Chain, U256};
use btcfast_crypto::{Hash256, KeyPair};
use btcfast_payjudger::client::CALL_GAS_LIMIT;
use btcfast_payjudger::evidence::EvidenceBundle;
use btcfast_payjudger::types::{EscrowRecord, EvidenceSummary, JudgerConfig, PaymentRecord};
use btcfast_payjudger::{Call as Abi, DisputeVerdict, PayJudger, PayJudgerClient, PaymentState};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::Encode;
use btcfast_pscsim::params::PscParams;
use btcfast_pscsim::tx::PscTransaction;
use btcfast_pscsim::PscChain;
use std::collections::{HashSet, VecDeque};
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
// Escrow explorer: every schedule of one escrow against a reference model
// ---------------------------------------------------------------------------

/// Seconds a merchant may dispute, and a dispute collects evidence.
const WINDOW: u64 = 600;
/// Δ: how deep an inclusion proof must bury the payment to clear it.
const DELTA: u64 = 3;
/// What every deposit, withdrawal and payment moves.
const COLLATERAL: u128 = 1_000;
/// Block time of the deployment and of every call before the first tick.
const START: u64 = 600;

/// One call on the escrow. Parties are indices: 0 is the customer, 1 and 2
/// are the merchants.
#[derive(Clone, Copy, Debug)]
enum Call {
    Deposit,
    Open(usize),
    Ack(usize),
    Close(usize),
    Dispute(usize),
    /// Payment, submitting party and evidence class.
    Submit(usize, usize, usize),
    Judge(usize),
    Withdraw,
    Tick,
}

/// An evidence class: the bundle, and the summary the contract must file
/// for it (`None`: refused from anyone).
struct Evidence {
    bundle: SpvEvidence,
    filed: Option<EvidenceSummary>,
}

/// The five evidence classes: segments from block 1, which holds the
/// paid transaction, to a tip, with an inclusion proof of a txid or none.
fn evidence_classes() -> Result<Vec<Evidence>, String> {
    let btc = shared_btc();
    let classes = [
        (DELTA, Some(0)),  // Δ-deep inclusion: the one class an outsider submits
        (2, Some(0)),      // shallow inclusion
        (DELTA, Some(1)),  // inclusion of another txid
        (2, None),         // lighter segment
        (DELTA + 1, None), // heavier segment
    ];
    let class = |(to, txid): (u64, Option<usize>)| {
        let bundle = SpvEvidence::from_chain(&btc.chain, 1, to, txid.map(|i| &btc.txids[i]));
        let work = bundle.verify(&U256::MAX).map_err(|e| e.to_string())?;
        let filed = (txid != Some(1)).then_some(EvidenceSummary {
            work: work.to_be_bytes(),
            blocks: to,
            tip: btc.chain.active_hashes()[to as usize - 1],
            includes_tx: txid.is_some(),
            // Block 1 through the tip.
            tx_confirmations: if txid.is_some() { to } else { 0 },
        });
        Ok(Evidence { bundle, filed })
    };
    classes.into_iter().map(class).collect()
}

/// The judgment's stated rule: only an inclusion proof buried Δ deep, on
/// evidence at least as heavy as the merchant's, clears the customer.
/// Work is big-endian, so byte order is numeric order.
fn customer_cleared(customer: &EvidenceSummary, merchant: &EvidenceSummary) -> bool {
    customer.includes_tx && customer.tx_confirmations >= DELTA && customer.work >= merchant.work
}

/// A payment in the [`Model`]; `evidence` is the customer's, the payee's.
#[derive(Clone)]
struct ModelPayment {
    payee: usize,
    state: PaymentState,
    opened_at: u64,
    disputed_at: u64,
    evidence: [EvidenceSummary; 2],
}

/// The reference model of one escrow: what each call must do, from the
/// contract's documented rules alone.
#[derive(Clone, Default)]
struct Model {
    /// Whether a deposit has created the escrow.
    exists: bool,
    balance: u128,
    locked: u128,
    payments: Vec<ModelPayment>,
}

impl Model {
    /// Applies `call` at block time `now` if the contract must take it,
    /// and says whether it did; a refused call changes nothing.
    fn step(&mut self, call: Call, now: u64, evidence: &[Evidence]) -> bool {
        let available = self.balance - self.locked >= COLLATERAL;
        let payment = match call {
            Call::Deposit => {
                self.exists = true;
                self.balance += COLLATERAL;
                return true;
            }
            Call::Open(payee) if available => {
                self.locked += COLLATERAL;
                self.payments.push(ModelPayment {
                    payee,
                    state: PaymentState::Open,
                    opened_at: now,
                    disputed_at: 0,
                    evidence: Default::default(),
                });
                return true;
            }
            Call::Withdraw if available => {
                self.balance -= COLLATERAL;
                return true;
            }
            Call::Tick => return true,
            Call::Open(_) | Call::Withdraw => return false,
            Call::Ack(p)
            | Call::Close(p)
            | Call::Dispute(p)
            | Call::Submit(p, ..)
            | Call::Judge(p) => &mut self.payments[p],
        };
        let challengeable = now < payment.opened_at + WINDOW;
        let collecting = now < payment.disputed_at + WINDOW;
        match (call, payment.state) {
            (Call::Ack(_), PaymentState::Open) => payment.state = PaymentState::Acked,
            (Call::Close(_), PaymentState::Open) if !challengeable => {
                payment.state = PaymentState::Closed;
            }
            (Call::Dispute(_), PaymentState::Open) if challengeable => {
                payment.state = PaymentState::Disputed;
                payment.disputed_at = now;
                return true;
            }
            (Call::Submit(_, by, class), PaymentState::Disputed) if collecting => {
                let slot = match by {
                    0 => &mut payment.evidence[0],
                    m if m == payment.payee => &mut payment.evidence[1],
                    _ => return false,
                };
                match &evidence[class].filed {
                    Some(filed) if filed.work > slot.work => *slot = filed.clone(),
                    _ => return false,
                }
                return true;
            }
            (Call::Judge(_), PaymentState::Disputed) if !collecting => {
                if customer_cleared(&payment.evidence[0], &payment.evidence[1]) {
                    payment.state = PaymentState::CustomerCleared;
                } else {
                    payment.state = PaymentState::MerchantPaid;
                    self.balance -= COLLATERAL;
                }
            }
            _ => return false,
        }
        // Ack, close and judgment free the collateral.
        self.locked -= COLLATERAL;
        true
    }

    /// The whole records the contract must hold.
    fn records(&self, accounts: &[AccountId]) -> Records {
        let escrow = self.exists.then_some(EscrowRecord {
            customer: accounts[0],
            balance: self.balance,
            locked: self.locked,
            payment_count: self.payments.len() as u64,
        });
        let payments = self.payments.iter().map(|p| PaymentRecord {
            checkpoint: Hash256::ZERO,
            merchant: accounts[p.payee],
            btc_txid: shared_btc().txids[0],
            amount_sats: 10_000,
            collateral: COLLATERAL,
            opened_at: p.opened_at,
            disputed_at: p.disputed_at,
            state: p.state,
            merchant_evidence: p.evidence[1].clone(),
            customer_evidence: p.evidence[0].clone(),
        });
        (escrow, payments.collect())
    }
}

/// One escrow's records: no escrow before the first deposit.
type Records = (Option<EscrowRecord>, Vec<PaymentRecord>);

/// Everything the escrow audit needs to drive one escrow and check its
/// books. Parties index `keys` and `accounts`: customer, then merchants.
struct EscrowAudit {
    judger: PayJudgerClient,
    keys: Vec<KeyPair>,
    accounts: Vec<AccountId>,
    minted: u128,
    evidence: Vec<Evidence>,
}

impl EscrowAudit {
    /// `locked` is the live collateral and at most the balance, the contract
    /// holds exactly the balance, and PSC value is conserved.
    fn check(&self, psc: &PscChain, (escrow, payments): &Records) -> Result<(), String> {
        let (balance, locked) = escrow.as_ref().map_or((0, 0), |e| (e.balance, e.locked));
        let live: u128 = payments
            .iter()
            .filter(|p| matches!(p.state, PaymentState::Open | PaymentState::Disputed))
            .map(|p| p.collateral)
            .sum();
        let contract = psc.balance_of(&self.judger.contract);
        let total: u128 = [self.judger.contract, psc.validator()]
            .iter()
            .chain(&self.accounts)
            .map(|account| psc.balance_of(account))
            .sum();
        if locked != live || locked > balance || contract != balance || total != self.minted {
            return Err(format!(
                "books: locked {locked}, live collateral {live}, balance {balance}, \
                 contract {contract}, {total} held of {} minted",
                self.minted
            ));
        }
        Ok(())
    }

    /// Every call offered from `node`: see [`explore_escrow`] for the bound.
    fn calls(&self, node: &Node, payees: usize, payments: usize, ticks: u64) -> Vec<Call> {
        let mut calls = vec![Call::Withdraw];
        calls.extend((node.model.balance < payments as u128 * COLLATERAL).then_some(Call::Deposit));
        if node.model.payments.len() < payments {
            calls.extend((1..=payees).map(Call::Open));
        }
        for (p, payment) in node.model.payments.iter().enumerate() {
            calls.extend([Call::Ack, Call::Close, Call::Dispute, Call::Judge].map(|call| call(p)));
            for by in 0..self.keys.len() {
                // An outsider is refused whatever it submits.
                let outsider = by != 0 && by != payment.payee;
                let classes = if outsider { 1 } else { self.evidence.len() };
                calls.extend((0..classes).map(|class| Call::Submit(p, by, class)));
            }
        }
        calls.extend((node.now < START + ticks * WINDOW / 2).then_some(Call::Tick));
        calls
    }

    /// The signed transaction for `call` (`None` for a tick).
    fn transaction(&self, node: &Node, call: Call) -> Option<PscTransaction> {
        let (judger, customer) = (&self.judger, self.accounts[0]);
        let key = match call {
            Call::Ack(p) | Call::Dispute(p) => &self.keys[node.model.payments[p].payee],
            Call::Submit(_, by, _) => &self.keys[by],
            _ => &self.keys[0],
        };
        let nonce = node.psc.nonce_of(&key.address().into());
        let abi = match call {
            Call::Deposit => Abi::Deposit(COLLATERAL),
            Call::Open(payee) => Abi::OpenPayment(
                self.accounts[payee],
                shared_btc().txids[0],
                10_000,
                COLLATERAL,
            ),
            Call::Ack(p) => Abi::AckPayment(customer, p as u64),
            Call::Close(p) => Abi::ClosePayment(p as u64),
            Call::Dispute(p) => Abi::Dispute(customer, p as u64),
            Call::Submit(p, _, class) => Abi::SubmitEvidence(
                customer,
                p as u64,
                EvidenceBundle(self.evidence[class].bundle.clone()),
            ),
            Call::Judge(p) => Abi::Judge(customer, p as u64),
            Call::Withdraw => Abi::Withdraw(COLLATERAL),
            Call::Tick => return None,
        };
        Some(judger.tx(key, nonce, CALL_GAS_LIMIT, &abi))
    }

    /// Checks `node`'s contract against its model and returns its records
    /// and its key: the records plus the block time. Not the chain's state
    /// commitment, which also covers nonces and fees: deposit then withdraw
    /// returns the records but never the commitment, so a search keyed by
    /// it never reaches a fixpoint.
    fn settle(&self, node: &Node) -> Result<(Records, Vec<u8>), String> {
        let customer = self.accounts[0];
        let records = match self.judger.escrow(&node.psc, customer) {
            Err(_) => (None, Vec::new()),
            Ok(escrow) => {
                let payments = (0..escrow.payment_count)
                    .map(|id| self.judger.payment(&node.psc, customer, id))
                    .collect::<Result<_, _>>();
                let payments = payments.map_err(|e| format!("payment view failed: {e:?}"))?;
                (Some(escrow), payments)
            }
        };
        let modelled = node.model.records(&self.accounts);
        if records != modelled {
            return Err(format!("contract holds {records:?}, model {modelled:?}"));
        }
        self.check(&node.psc, &records)?;
        let mut key = node.now.encode();
        records.encode_to(&mut key);
        Ok((records, key))
    }

    /// Tries `call` from `node` on a copy: the next state and its key if
    /// the call lands, `None` if the contract refused it.
    fn step(&self, node: &Node, call: Call) -> Result<Option<(Node, Vec<u8>)>, String> {
        let mut next = node.clone();
        next.path.push(call);
        let receipt = match self.transaction(node, call) {
            None => {
                next.now += WINDOW / 2;
                None
            }
            Some(tx) => {
                let hash = next.psc.submit_transaction(tx).map_err(|e| e.to_string())?;
                next.psc.produce_block(node.now);
                Some(next.psc.receipt(&hash).ok_or("no receipt")?.clone())
            }
        };
        let landed = receipt.as_ref().is_none_or(|r| r.status.is_success());
        if landed != next.model.step(call, node.now, &self.evidence) {
            let status = receipt.map(|r| r.status);
            return Err(format!("landing: contract and model disagree, {status:?}"));
        }
        let (records, key) = self.settle(&next)?;
        if let (Call::Judge(p), true) = (call, landed) {
            // The payee gets exactly the collateral or nothing, as the rule
            // applied to the evidence on file says.
            let on_file = &records.1[p];
            let cleared = customer_cleared(&on_file.customer_evidence, &on_file.merchant_evidence);
            let verdict = receipt.as_ref().and_then(PayJudgerClient::verdict_from);
            let won = verdict.map(|v| v == DisputeVerdict::CustomerWins);
            let merchant = |psc: &PscChain| psc.balance_of(&on_file.merchant);
            let paid = merchant(&next.psc).wrapping_sub(merchant(&node.psc));
            if (won, paid) != (Some(cleared), if cleared { 0 } else { COLLATERAL }) {
                return Err(format!("{verdict:?} paying {paid}, cleared {cleared}"));
            }
        }
        Ok(landed.then_some((next, key)))
    }
}

/// An explored state, with the schedule that first reached it.
#[derive(Clone)]
struct Node {
    psc: PscChain,
    model: Model,
    now: u64,
    path: Vec<Call>,
}

/// Breadth-first search over every schedule of calls on one escrow, on the
/// real [`PayJudger`]: deposit (while the balance is below what `payments`
/// can lock), open to one of the first `payees` merchants (up to `payments`
/// payments), ack, close, dispute, evidence from the customer, the payee
/// and an outsider, judge, withdraw, and up to `ticks` ticks of half a
/// challenge window. Schedules stop at `depth` steps (`usize::MAX`: at a
/// fixpoint). After every call, refused ones included, the contract must
/// agree with the model and keep its books.
///
/// Returns the numbers of states, of calls and ticks tried, and of calls
/// refused.
///
/// # Errors
///
/// The first disagreement, with the schedule that reached it.
pub fn explore_escrow(
    payees: usize,
    payments: usize,
    ticks: u64,
    depth: usize,
) -> Result<[usize; 3], String> {
    let keys = ["customer", "merchant 1", "merchant 2"]
        .map(|who| KeyPair::from_seed(format!("audit escrow {who}").as_bytes()));
    let accounts: Vec<AccountId> = keys.iter().map(|key| key.address().into()).collect();
    let mut psc = PscChain::new(PscParams::ethereum_like());
    let gas_price = psc.params().gas_price;
    psc.register_code(Arc::new(PayJudger));
    let minted = accounts.iter().map(|&id| psc.faucet(id, 1 << 40)).sum();
    let config = JudgerConfig {
        checkpoint: Hash256::ZERO,
        min_target_bits: ChainParams::regtest().pow_limit_bits.0,
        challenge_window_secs: WINDOW,
        min_evidence_blocks: DELTA,
    };
    let deploy = PayJudgerClient::deploy_tx(&keys[0], 0, &config, gas_price);
    let deploy = psc.submit_transaction(deploy).map_err(|e| e.to_string())?;
    psc.produce_block(START);
    let contract = psc.receipt(&deploy).and_then(|r| r.contract_address);
    let judger = PayJudgerClient::new(contract.ok_or("deploy yielded no address")?, gas_price);
    let audit = EscrowAudit {
        judger,
        keys: keys.into(),
        accounts,
        minted,
        evidence: evidence_classes()?,
    };

    let root = Node {
        psc,
        model: Model::default(),
        now: START,
        path: Vec::new(),
    };
    let mut seen = HashSet::from([audit.settle(&root)?.1]);
    let mut queue = VecDeque::from([root]);
    let (mut transitions, mut refused) = (0, 0);
    while let Some(node) = queue.pop_front() {
        if node.path.len() >= depth {
            continue;
        }
        for call in audit.calls(&node, payees, payments, ticks) {
            transitions += 1;
            match audit.step(&node, call) {
                Err(e) => return Err(format!("{e}\n  after {:?} then {call:?}", node.path)),
                Ok(None) => refused += 1,
                Ok(Some((next, key))) => {
                    if seen.insert(key) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    Ok([seen.len(), transitions, refused])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Invariant);
    }

    #[test]
    fn empty_input_runs_the_default_script() {
        invariant_chain_conservation(&[]).unwrap();
    }

    // [states, transitions, refused calls]: a change in what the contract
    // reaches moves them.

    #[test]
    fn every_escrow_schedule_agrees_with_the_model() {
        // A payee, an outsider merchant and one payment over two ticks.
        assert_eq!(explore_escrow(1, 1, 2, usize::MAX), Ok([304, 4891, 3943]));
    }

    #[test]
    #[ignore = "deep bound: cargo test --release -p btcfast-audit -- --ignored"]
    fn two_payees_one_payment_to_a_fixpoint() {
        assert_eq!(
            explore_escrow(2, 1, 4, usize::MAX),
            Ok([2279, 38055, 32372])
        );
    }

    #[test]
    #[ignore = "deep bound: cargo test --release -p btcfast-audit -- --ignored"]
    fn two_payees_two_payments_eight_steps() {
        assert_eq!(explore_escrow(2, 2, 4, 8), Ok([7320, 68549, 51462]));
    }
}
