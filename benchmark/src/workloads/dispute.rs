//! `double_spend_dispute`: the safety claim. Every op provisions a fresh
//! session, pays, forks privately at 45% hashrate and — when the reorg
//! removes the payment — disputes, proves and is judged.

use super::{SliceOutcome, Workload, AMOUNT_SATS};
use crate::rng::slice_seed;
use crate::spans::Recorder;
use btcfast::{FastPaySession, SessionConfig};
use btcfast_payjudger::types::DisputeVerdict;

/// Attacks per slice.
const ATTACKS: u64 = 10;
/// The attacker's share of the hashrate.
const ATTACKER_HASHRATE: f64 = 0.45;
/// Honest blocks after which the attacker gives up.
const MAX_RACE_BLOCKS: u64 = 6;

/// The dispute workload.
pub struct Dispute {
    seed: u64,
    config: SessionConfig,
}

impl Dispute {
    /// A four-hour challenge window, long enough for every race to end
    /// inside it.
    pub fn new(seed: u64) -> Dispute {
        Dispute {
            seed,
            config: SessionConfig {
                challenge_window_secs: 14_400,
                ..SessionConfig::default()
            },
        }
    }

    fn attack(&self, seed: u64, op: u64, rec: &mut Recorder, out: &mut SliceOutcome) {
        rec.set_op(op);
        out.ops += 1;
        let span = rec.enter("core.session_new");
        let mut session = FastPaySession::new(self.config.clone(), seed);
        rec.exit(span);
        let chain_before = session.btc.stats();
        let height_before = session.btc.height();
        let psc_height_before = session.psc.height();
        let gas_before = session.psc.total_gas_used();

        let span = rec.enter("core.run_double_spend_attack");
        let result =
            session.run_double_spend_attack(AMOUNT_SATS, ATTACKER_HASHRATE, MAX_RACE_BLOCKS);
        rec.exit(span);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                eprintln!("attack failed: {e}");
                return;
            }
        };

        // Blocks either side mined during the race, from the chain's own
        // counters; a won race disconnected every honest one of them.
        let chain_after = session.btc.stats();
        let race_blocks = (chain_after.blocks_connected + chain_after.side_chain_blocks)
            - (chain_before.blocks_connected + chain_before.side_chain_blocks);
        out.counts.add("attacks", 1.0);
        out.counts.add("race_blocks", race_blocks as f64);
        if report.attacker_won_race {
            let attacker_branch = session.btc.height() - height_before;
            out.counts.max(
                "reorg_depth_max",
                race_blocks.saturating_sub(attacker_branch) as f64,
            );
        }

        if report.merchant_lost_payment && !report.merchant_compensated {
            out.failed += 1;
        }
        if let Some(verdict) = report.verdict {
            out.check(
                verdict == DisputeVerdict::MerchantWins && report.merchant_net_loss_sats <= 0,
                "dispute: the merchant wins and loses nothing",
            );
            out.sim.dispute_us.push(report.dispute_duration.as_micros());
            // The attack's first PSC transaction registered the payment;
            // everything after it is the dispute's gas.
            let registration_gas = (psc_height_before + 1..=session.psc.height())
                .filter_map(|number| session.psc.block(number))
                .flat_map(|block| block.tx_hashes.iter())
                .find_map(|hash| session.psc.receipt(hash))
                .map_or(0, |receipt| receipt.gas_used);
            out.counts.add("disputes", 1.0);
            out.counts.add(
                "dispute_gas",
                (session.psc.total_gas_used() - gas_before - registration_gas) as f64,
            );
        }
    }
}

impl Workload for Dispute {
    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome {
        let mut out = SliceOutcome::default();
        for i in 0..ATTACKS {
            let op = index * ATTACKS + i;
            self.attack(slice_seed(self.seed, op), op, rec, &mut out);
        }
        out
    }

    fn warm_up(&mut self) {
        let mut out = SliceOutcome::default();
        for i in 0..4 {
            self.attack(
                self.seed ^ (0xA77A << 32) ^ i,
                i,
                &mut Recorder::disabled(),
                &mut out,
            );
        }
    }
}
