//! Scrapes every subsystem's cheap stat structs into one obs [`Registry`].
//!
//! Each substrate keeps its own plain counter struct next to its hot path
//! (mempool admissions, chain connects, sig-cache hits, PSC journal
//! high-water, batch-verify work, transport retransmissions) — no
//! substrate depends on the metrics layer. This module is the one place
//! that knows all their shapes and publishes them under stable
//! `btcfast_*` names, so `harness trace` and E12 can dump a single
//! Prometheus-style snapshot for a whole session.
//!
//! Everything is published as a **gauge** (a scraped instantaneous
//! snapshot of a monotonic source), so re-scraping the same session is
//! idempotent rather than double-counting.

use crate::chaos::ChaosSession;
use crate::session::FastPaySession;
use btcfast_netsim::transport::TransportStats;
use btcfast_obs::Registry;

/// Publishes every observable counter of `session` into `registry`.
///
/// Covers the BTC side (chain connect/reorg stats, mempool admissions and
/// depth, this thread's signature-cache behavior, the session's batch
/// pre-verification work) and the PSC side (height, total gas, journal
/// high-water, commitment work).
pub fn publish_session(registry: &mut Registry, session: &FastPaySession) {
    let chain = session.btc.stats();
    registry.set("btcfast_btc_blocks_connected", chain.blocks_connected);
    registry.set("btcfast_btc_txs_connected", chain.txs_connected);
    registry.set("btcfast_btc_reorgs", chain.reorgs);
    registry.set("btcfast_btc_side_chain_blocks", chain.side_chain_blocks);
    registry.set("btcfast_btc_height", session.btc.height());

    let mempool = session.mempool.stats();
    registry.set("btcfast_mempool_admitted", mempool.admitted);
    registry.set("btcfast_mempool_rejected", mempool.rejected);
    registry.set("btcfast_mempool_conflicts", mempool.conflicts);
    registry.set("btcfast_mempool_depth", session.mempool.len() as u64);

    // The signature cache is per-thread (shards never share one); this
    // scrape reports the calling thread's view.
    let sig = btcfast_btcsim::utxo::sig_cache_stats();
    registry.set("btcfast_sig_cache_hits", sig.hits);
    registry.set("btcfast_sig_cache_misses", sig.misses);
    registry.set("btcfast_sig_cache_resets", sig.resets);
    registry.set("btcfast_sig_cache_primed", sig.primed);

    // Batch-ECDSA work of the batch path's signature pre-verification.
    let batch = session.sig_batch_stats();
    registry.set("btcfast_batch_verify_items", batch.items);
    registry.set("btcfast_batch_verify_hinted", batch.hinted);
    registry.set("btcfast_batch_verify_oracle_checks", batch.oracle_checks);
    registry.set("btcfast_batch_verify_msm_evals", batch.msm_evals);
    registry.set("btcfast_batch_verify_bisections", batch.bisections);

    // The public-key table cache inside ecdsa::verify is per-thread too.
    let tables = btcfast_crypto::ecdsa::pubkey_cache_stats();
    registry.set("btcfast_pubkey_table_hits", tables.hits);
    registry.set("btcfast_pubkey_table_misses", tables.misses);
    registry.set("btcfast_pubkey_table_insertions", tables.insertions);
    registry.set("btcfast_pubkey_table_evictions", tables.evictions);

    registry.set("btcfast_psc_height", session.psc.height());
    registry.set("btcfast_psc_gas_used", session.psc.total_gas_used());

    registry.set("btcfast_trace_dropped_events", session.trace_dropped());
}

/// Publishes reliable-transport counters into `registry`.
pub fn publish_transport(registry: &mut Registry, stats: &TransportStats) {
    for (key, n) in stats.fields() {
        registry.set(&format!("btcfast_transport_{key}"), n);
    }
}

/// Publishes the durable-store and recovery-journal counters of a
/// [`RecoveryManager`](crate::recovery::RecoveryManager) into `registry`.
pub fn publish_recovery<S: btcfast_store::Storage>(
    registry: &mut Registry,
    recovery: &crate::recovery::RecoveryManager<S>,
) {
    let stats = recovery.stats();
    registry.set("btcfast_recovery_recoveries", stats.recoveries);
    registry.set("btcfast_recovery_replayed_records", stats.replayed_records);
    registry.set("btcfast_recovery_pending_resumed", stats.pending_resumed);
    registry.set("btcfast_recovery_journal_appends", stats.journal_appends);
    registry.set("btcfast_recovery_checkpoints", stats.checkpoints);
    registry.set(
        "btcfast_recovery_pending_intents",
        recovery.pending().count() as u64,
    );
    registry.set(
        "btcfast_recovery_payments_tracked",
        recovery.ledger().payments.len() as u64,
    );

    let wal = recovery.wal_stats();
    registry.set("btcfast_wal_appends", wal.appends);
    registry.set("btcfast_wal_bytes_appended", wal.bytes_appended);
    registry.set("btcfast_wal_recoveries", wal.recoveries);
    registry.set("btcfast_wal_records_recovered", wal.records_recovered);
    registry.set("btcfast_wal_truncated_bytes", wal.truncated_bytes);
    registry.set("btcfast_wal_duplicates_skipped", wal.duplicates_skipped);
    registry.set("btcfast_wal_syncs", wal.syncs);
    registry.set("btcfast_wal_medium_bytes", wal.medium_bytes);
}

/// Publishes a chaos session: the wrapped protocol session plus its
/// transport fabric.
pub fn publish_chaos(registry: &mut Registry, chaos: &ChaosSession) {
    publish_session(registry, &chaos.session);
    publish_transport(registry, &chaos.transport_stats());
    publish_recovery(registry, chaos.recovery());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;

    #[test]
    fn scrape_publishes_every_subsystem_under_stable_names() {
        let mut session = FastPaySession::new(SessionConfig::default(), 31);
        let report = session.run_fast_payment(1_000_000).unwrap();
        assert!(report.accepted);

        let mut registry = Registry::new();
        publish_session(&mut registry, &session);
        let text = registry.render_prometheus();
        for name in [
            "btcfast_btc_blocks_connected",
            "btcfast_mempool_admitted",
            "btcfast_psc_gas_used",
            "btcfast_sig_cache_hits",
            "btcfast_sig_cache_primed",
            "btcfast_batch_verify_items",
            "btcfast_batch_verify_msm_evals",
            "btcfast_pubkey_table_hits",
            "btcfast_pubkey_table_misses",
            "btcfast_pubkey_table_insertions",
            "btcfast_pubkey_table_evictions",
            "btcfast_trace_dropped_events",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The accepted payment verified at least one signature through the
        // per-key table cache on this thread.
        let tables = btcfast_crypto::ecdsa::pubkey_cache_stats();
        assert!(tables.hits + tables.misses >= 1, "verify used the cache");
        // Provisioning mined blocks and the accepted payment is pooled.
        assert!(registry.get("btcfast_btc_blocks_connected").unwrap() >= 3);
        assert_eq!(registry.get("btcfast_mempool_depth"), Some(1));
        assert_eq!(registry.get("btcfast_mempool_admitted"), Some(1));

        // Re-scraping is idempotent: gauges snapshot, they don't accumulate.
        publish_session(&mut registry, &session);
        assert_eq!(registry.get("btcfast_mempool_admitted"), Some(1));
    }

    #[test]
    fn chaos_scrape_includes_transport_counters() {
        use crate::robustness::ChaosConfig;
        use btcfast_netsim::faults::FaultPlan;

        let mut chaos = ChaosSession::new(
            SessionConfig::default(),
            ChaosConfig::default(),
            FaultPlan::new(),
            32,
        );
        chaos.run_fast_payment_chaos(1_000_000).unwrap();
        let mut registry = Registry::new();
        publish_chaos(&mut registry, &chaos);
        assert!(registry.get("btcfast_transport_sent").unwrap() >= 3);
        assert_eq!(registry.get("btcfast_transport_failed"), Some(0));
        // The journal saw escrow-open plus the payment's five steps, each
        // a Begin + Done append.
        assert!(registry.get("btcfast_recovery_journal_appends").unwrap() >= 10);
        assert_eq!(registry.get("btcfast_recovery_pending_intents"), Some(0));
        assert_eq!(registry.get("btcfast_recovery_payments_tracked"), Some(1));
        assert!(registry.get("btcfast_wal_appends").unwrap() >= 10);
        assert!(registry.get("btcfast_wal_bytes_appended").unwrap() > 0);
        // One sync per Begin record; nothing checkpointed, so the medium
        // still holds every byte appended.
        assert_eq!(
            registry.get("btcfast_wal_syncs").unwrap() * 2,
            registry.get("btcfast_wal_appends").unwrap()
        );
        assert_eq!(
            registry.get("btcfast_wal_medium_bytes").unwrap(),
            registry.get("btcfast_wal_bytes_appended").unwrap()
        );
    }

    #[test]
    fn crash_restart_surfaces_in_recovery_gauges() {
        use crate::chaos::MERCHANT_NODE;
        use crate::robustness::ChaosConfig;
        use btcfast_netsim::faults::FaultPlan;
        use btcfast_netsim::time::SimTime;

        let mut plan = FaultPlan::new();
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(25));
        let mut chaos =
            ChaosSession::new(SessionConfig::default(), ChaosConfig::default(), plan, 33);
        chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(chaos.recoveries() >= 1);
        let mut registry = Registry::new();
        publish_chaos(&mut registry, &chaos);
        assert!(registry.get("btcfast_recovery_recoveries").unwrap() >= 1);
        assert!(registry.get("btcfast_recovery_replayed_records").unwrap() >= 1);
    }
}
