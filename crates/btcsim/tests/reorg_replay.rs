//! A *failed* reorg rolls a bad branch back with its undo logs instead of
//! restoring a snapshot: a deterministic case pins that every observable
//! survives a deep failed reorg and that the re-applied blocks can still
//! be reorged away afterwards, to the state of a chain that only ever saw
//! the winners.
//!
//! That a successful reorg leaves the chain equal to a fresh linear replay
//! of its active blocks, on random fork/timestamp schedules, is the
//! `diff/chain-reorg` target of `btcfast-audit`.

use btcfast_btcsim::block::Block;
use btcfast_btcsim::chain::{ChainError, SubmitOutcome};
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::transaction::{OutPoint, Transaction, TxIn, TxOut};
use btcfast_btcsim::{Amount, Chain};
use btcfast_crypto::keys::Address;
use btcfast_crypto::{Hash256, KeyPair};

/// Signed spend of `block`'s coinbase: `sats` to `to`, change to the owner.
fn spend_coinbase(block: &Block, owner: &KeyPair, to: Address, sats: u64) -> Transaction {
    let coinbase = &block.transactions[0];
    let paid = Amount::from_sats(sats).expect("bounded amount");
    let fee = Amount::from_sats(1_000).expect("bounded fee");
    let mut tx = Transaction::new(
        vec![TxIn::spend(OutPoint {
            txid: coinbase.txid(),
            vout: 0,
        })],
        vec![
            TxOut::payment(paid, to),
            TxOut::payment(coinbase.outputs[0].value - paid - fee, owner.address()),
        ],
    );
    tx.sign_input(0, owner, &coinbase.outputs[0].script_pubkey)
        .expect("owner signs its own coinbase");
    tx
}

/// Mines one block per entry of `txs_per_block` on top of `parent`, each
/// 600 s after the last, submitting as it goes. Returns the branch tip
/// and each submission's verdict.
fn mine_branch(
    chain: &mut Chain,
    miner: &mut Miner,
    mut parent: Hash256,
    mut time: u64,
    txs_per_block: Vec<Vec<Transaction>>,
) -> (Hash256, Vec<Result<SubmitOutcome, ChainError>>) {
    let verdicts = txs_per_block
        .into_iter()
        .map(|txs| {
            time += 600;
            let block = miner.mine_block_on(chain, parent, txs, time);
            parent = block.hash();
            chain.submit_block(block)
        })
        .collect();
    (parent, verdicts)
}

/// Everything a caller can see of the state a reorg rewires.
fn observables(chain: &Chain, txids: &[Hash256]) -> impl PartialEq + std::fmt::Debug {
    (
        chain.utxo().fingerprint(),
        chain.utxo().clone(), // coin map and address index, field by field
        chain.active_hashes().to_vec(),
        txids
            .iter()
            .map(|txid| (chain.confirmations(txid), chain.containing_block(txid)))
            .collect::<Vec<_>>(),
        (chain.tip_hash(), chain.height(), chain.tip_work()),
        chain.stats(),
    )
}

#[test]
fn failed_deep_reorg_restores_every_observable_and_leaves_undo_logs_usable() {
    let params = ChainParams::regtest();
    let owner = KeyPair::from_seed(b"honest miner");
    let merchant = Address([0x4D; 20]);
    let thief = Address([0x7E; 20]);
    let mut chain = Chain::new(params.clone());
    let mut miner = Miner::new(params.clone(), owner.address());

    // Active chain b1..b5: b3 and b4 each confirm a payment to the merchant.
    let b1 = miner.mine_block(&chain, vec![], 600);
    chain.submit_block(b1.clone()).unwrap();
    let b2 = miner.mine_block(&chain, vec![], 1_200);
    chain.submit_block(b2.clone()).unwrap();
    let pay_a = spend_coinbase(&b1, &owner, merchant, 5_000_000);
    let pay_b = spend_coinbase(&b2, &owner, merchant, 7_000_000);
    let (_, verdicts) = mine_branch(
        &mut chain,
        &mut miner,
        b2.hash(),
        1_200,
        vec![vec![pay_a.clone()], vec![pay_b.clone()], vec![]],
    );
    assert_eq!(
        verdicts,
        vec![Ok(SubmitOutcome::Connected { reorged: false }); 3]
    );
    let steal_a = spend_coinbase(&b1, &owner, thief, 5_000_000);
    let mut txids: Vec<Hash256> = chain
        .active_hashes()
        .iter()
        .flat_map(|hash| &chain.block(hash).expect("active").transactions)
        .map(Transaction::txid)
        .collect();
    assert!(txids.contains(&pay_a.txid()) && txids.contains(&pay_b.txid()));
    txids.push(steal_a.txid());

    // A heavier 4-block branch off b2 whose 3rd block spends b2's coinbase
    // twice. Its first two blocks are fine (the first even double-spends
    // `pay_a`, legitimately on that branch), so the reorg disconnects b5,
    // b4 and b3, connects two blocks, and only then hits the bad one.
    let mut forger = Miner::new(params.clone(), KeyPair::from_seed(b"forger").address());
    let (bad_tip, verdicts) = mine_branch(
        &mut chain,
        &mut forger,
        b2.hash(),
        1_201,
        vec![
            vec![steal_a.clone()],
            vec![],
            vec![
                spend_coinbase(&b2, &owner, thief, 1_000),
                spend_coinbase(&b2, &owner, thief, 2_000),
            ],
        ],
    );
    assert_eq!(verdicts, vec![Ok(SubmitOutcome::SideChain); 3]);
    let before = observables(&chain, &txids);
    let (_, verdicts) = mine_branch(&mut chain, &mut forger, bad_tip, 3_001, vec![vec![]]);
    assert!(
        matches!(verdicts[0], Err(ChainError::Utxo(_))),
        "{verdicts:?}"
    );
    assert_eq!(observables(&chain, &txids), before);

    // The blocks the failed reorg re-applied carry fresh undo logs: a valid
    // heavier branch off the same fork point still reorgs them away, and
    // the result is what a chain that only ever saw the winners holds.
    let mut rival = Miner::new(params.clone(), KeyPair::from_seed(b"rival").address());
    let (rival_tip, verdicts) = mine_branch(
        &mut chain,
        &mut rival,
        b2.hash(),
        1_202,
        vec![vec![steal_a.clone()], vec![], vec![], vec![]],
    );
    assert_eq!(verdicts[..3], vec![Ok(SubmitOutcome::SideChain); 3]);
    assert_eq!(verdicts[3], Ok(SubmitOutcome::Connected { reorged: true }));
    assert_eq!((chain.tip_hash(), chain.height()), (rival_tip, 6));
    assert_eq!(chain.confirmations(&pay_a.txid()), None);
    assert_eq!(chain.confirmations(&pay_b.txid()), None);
    assert_eq!(chain.confirmations(&steal_a.txid()), Some(4));

    let mut fresh = Chain::new(params);
    for hash in chain.active_hashes() {
        let block = chain.block(hash).expect("active block in store").clone();
        fresh.submit_block(block).expect("winners replay linearly");
    }
    assert_eq!(fresh.utxo(), chain.utxo());
    assert_eq!(fresh.utxo().fingerprint(), chain.utxo().fingerprint());
    assert_eq!(fresh.active_hashes(), chain.active_hashes());
}
