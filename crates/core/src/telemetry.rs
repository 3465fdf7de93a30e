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
use crate::engine::LoadReport;
use crate::session::FastPaySession;
use btcfast_netsim::transport::TransportStats;
use btcfast_obs::Registry;

/// Publishes every observable counter of `session` into `registry`.
///
/// Covers the BTC side (chain connect/reorg stats, mempool admissions and
/// depth, this thread's signature-cache behavior, the session's batch
/// pre-verification work) and the PSC side (height, total gas, journal
/// high-water, commitment work).
pub fn publish_session(registry: &Registry, session: &FastPaySession) {
    let chain = session.btc.stats();
    registry.set_gauge("btcfast_btc_blocks_connected", chain.blocks_connected);
    registry.set_gauge("btcfast_btc_txs_connected", chain.txs_connected);
    registry.set_gauge("btcfast_btc_reorgs", chain.reorgs);
    registry.set_gauge("btcfast_btc_side_chain_blocks", chain.side_chain_blocks);
    registry.set_gauge("btcfast_btc_height", session.btc.height());

    let mempool = session.mempool.stats();
    registry.set_gauge("btcfast_mempool_admitted", mempool.admitted);
    registry.set_gauge("btcfast_mempool_rejected", mempool.rejected);
    registry.set_gauge("btcfast_mempool_conflicts", mempool.conflicts);
    registry.set_gauge("btcfast_mempool_depth", session.mempool.len() as u64);

    // The signature cache is per-thread (shards never share one); this
    // scrape reports the calling thread's view.
    let sig = btcfast_btcsim::utxo::sig_cache_stats();
    registry.set_gauge("btcfast_sig_cache_hits", sig.hits);
    registry.set_gauge("btcfast_sig_cache_misses", sig.misses);
    registry.set_gauge("btcfast_sig_cache_resets", sig.resets);
    registry.set_gauge("btcfast_sig_cache_primed", sig.primed);

    // Batch-ECDSA work of the batch path's signature pre-verification.
    let batch = session.sig_batch_stats();
    registry.set_gauge("btcfast_batch_verify_items", batch.items);
    registry.set_gauge("btcfast_batch_verify_hinted", batch.hinted);
    registry.set_gauge("btcfast_batch_verify_oracle_checks", batch.oracle_checks);
    registry.set_gauge("btcfast_batch_verify_msm_evals", batch.msm_evals);
    registry.set_gauge("btcfast_batch_verify_bisections", batch.bisections);

    // The public-key table cache inside ecdsa::verify is per-thread too.
    let tables = btcfast_crypto::ecdsa::pubkey_cache_stats();
    registry.set_gauge("btcfast_pubkey_table_hits", tables.hits);
    registry.set_gauge("btcfast_pubkey_table_misses", tables.misses);
    registry.set_gauge("btcfast_pubkey_table_insertions", tables.insertions);
    registry.set_gauge("btcfast_pubkey_table_evictions", tables.evictions);

    registry.set_gauge("btcfast_psc_height", session.psc.height());
    registry.set_gauge("btcfast_psc_gas_used", session.psc.total_gas_used());
    registry.set_gauge(
        "btcfast_psc_journal_high_water",
        session.psc.journal_high_water() as u64,
    );
    let commit = session.psc.commit_stats();
    registry.set_gauge("btcfast_psc_commit_leaves", commit.leaves as u64);
    registry.set_gauge(
        "btcfast_psc_commit_dirty_high_water",
        commit.dirty_high_water as u64,
    );
    registry.set_gauge("btcfast_psc_commit_nodes_hashed", commit.nodes_hashed);

    registry.set_gauge("btcfast_trace_dropped_events", session.trace_dropped());
}

/// Publishes reliable-transport counters into `registry`.
pub fn publish_transport(registry: &Registry, stats: &TransportStats) {
    registry.set_gauge("btcfast_transport_sent", stats.sent);
    registry.set_gauge("btcfast_transport_retransmissions", stats.retransmissions);
    registry.set_gauge("btcfast_transport_delivered", stats.delivered);
    registry.set_gauge("btcfast_transport_failed", stats.failed);
    registry.set_gauge("btcfast_transport_dedup_drops", stats.duplicates_dropped);
    registry.set_gauge(
        "btcfast_transport_backoff_wait_us",
        stats.backoff_wait_micros,
    );
    registry.set_gauge("btcfast_transport_dedup_high_water", stats.dedup_high_water);
    registry.set_gauge(
        "btcfast_transport_pending_high_water",
        stats.pending_high_water,
    );
    registry.set_gauge("btcfast_transport_dedup_evictions", stats.dedup_evictions);
    registry.set_gauge("btcfast_transport_resolved_retired", stats.resolved_retired);
}

/// Publishes the durable-store and recovery-journal counters of a
/// [`RecoveryManager`] into `registry`.
pub fn publish_recovery<S: btcfast_store::Storage>(
    registry: &Registry,
    recovery: &crate::recovery::RecoveryManager<S>,
) {
    let stats = recovery.stats();
    registry.set_gauge("btcfast_recovery_recoveries", stats.recoveries);
    registry.set_gauge("btcfast_recovery_replayed_records", stats.replayed_records);
    registry.set_gauge("btcfast_recovery_pending_resumed", stats.pending_resumed);
    registry.set_gauge("btcfast_recovery_journal_appends", stats.journal_appends);
    registry.set_gauge("btcfast_recovery_checkpoints", stats.checkpoints);
    registry.set_gauge(
        "btcfast_recovery_pending_intents",
        recovery.pending().count() as u64,
    );
    registry.set_gauge(
        "btcfast_recovery_payments_tracked",
        recovery.ledger().payments.len() as u64,
    );

    let wal = recovery.wal_stats();
    registry.set_gauge("btcfast_wal_appends", wal.appends);
    registry.set_gauge("btcfast_wal_bytes_appended", wal.bytes_appended);
    registry.set_gauge("btcfast_wal_recoveries", wal.recoveries);
    registry.set_gauge("btcfast_wal_records_recovered", wal.records_recovered);
    registry.set_gauge("btcfast_wal_truncated_bytes", wal.truncated_bytes);
    registry.set_gauge("btcfast_wal_duplicates_skipped", wal.duplicates_skipped);
    registry.set_gauge("btcfast_wal_syncs", wal.syncs);
    registry.set_gauge("btcfast_wal_medium_bytes", wal.medium_bytes);
}

/// Publishes an open-loop load run: aggregate offered/served/shed
/// counters plus every shard's admitted, high-water, and shed accounting
/// under stable per-shard names.
pub fn publish_load(registry: &Registry, report: &LoadReport) {
    registry.set_gauge("btcfast_load_offered", report.offered as u64);
    registry.set_gauge("btcfast_load_executed", report.executed as u64);
    registry.set_gauge("btcfast_load_accepted", report.total_accepted() as u64);
    registry.set_gauge("btcfast_load_shed", report.shed_count() as u64);
    registry.set_gauge("btcfast_load_makespan_us", report.makespan.as_micros());
    // Residue is u128 only because escrow values are; a non-zero residue
    // is a conservation bug, so saturating the gauge is fine.
    registry.set_gauge(
        "btcfast_load_escrow_residue",
        u64::try_from(report.escrow_residue()).unwrap_or(u64::MAX),
    );
    for outcome in &report.outcomes {
        let shard = outcome.shard;
        let stats = &outcome.admission;
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_admitted"),
            stats.admitted,
        );
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_high_water"),
            stats.high_water as u64,
        );
        registry.set_gauge(
            &format!("btcfast_admission_shard{shard}_shed"),
            stats.rejected_new,
        );
    }
}

/// Publishes a chaos session: the wrapped protocol session plus its
/// transport fabric.
pub fn publish_chaos(registry: &Registry, chaos: &ChaosSession) {
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

        let registry = Registry::new();
        publish_session(&registry, &session);
        let text = registry.render_prometheus();
        for name in [
            "btcfast_btc_blocks_connected",
            "btcfast_mempool_admitted",
            "btcfast_psc_gas_used",
            "btcfast_psc_journal_high_water",
            "btcfast_psc_commit_leaves",
            "btcfast_psc_commit_dirty_high_water",
            "btcfast_psc_commit_nodes_hashed",
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
        assert!(registry.gauge("btcfast_btc_blocks_connected").get() >= 3);
        assert_eq!(registry.gauge("btcfast_mempool_depth").get(), 1);
        assert_eq!(registry.gauge("btcfast_mempool_admitted").get(), 1);

        // Re-scraping is idempotent: gauges snapshot, they don't accumulate.
        publish_session(&registry, &session);
        assert_eq!(registry.gauge("btcfast_mempool_admitted").get(), 1);
    }

    #[test]
    fn load_scrape_publishes_aggregate_and_per_shard_admission_gauges() {
        use crate::admission::{AdmissionConfig, SheddingPolicy};
        use crate::engine::{EngineConfig, LoadArrival, PaymentEngine};
        use btcfast_netsim::time::SimTime;

        let engine = PaymentEngine::new(EngineConfig {
            session: SessionConfig::eos_flavored(),
            shards: 2,
            batch_size: 4,
            ..EngineConfig::default()
        });
        let schedule: Vec<LoadArrival> = (0..16)
            .map(|i| LoadArrival {
                at: SimTime::from_millis(i * 5),
                shard: (i % 2) as usize,
                payments: 1,
            })
            .collect();
        let report = engine
            .run_load(
                41,
                &schedule,
                AdmissionConfig::bounded(2, SheddingPolicy::FairPerShard),
            )
            .unwrap();
        assert!(report.shed_count() > 0, "the burst must overload");

        let registry = Registry::new();
        publish_load(&registry, &report);
        assert_eq!(registry.gauge("btcfast_load_offered").get(), 16);
        assert_eq!(
            registry.gauge("btcfast_load_executed").get()
                + registry.gauge("btcfast_load_shed").get(),
            16
        );
        assert_eq!(registry.gauge("btcfast_load_escrow_residue").get(), 0);
        for shard in 0..2 {
            assert!(
                registry
                    .gauge(&format!("btcfast_admission_shard{shard}_high_water"))
                    .get()
                    >= 1
            );
        }
        let shed: u64 = (0..2)
            .map(|shard| {
                registry
                    .gauge(&format!("btcfast_admission_shard{shard}_shed"))
                    .get()
            })
            .sum();
        assert_eq!(shed, report.shed_count() as u64);
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
        let registry = Registry::new();
        publish_chaos(&registry, &chaos);
        assert!(registry.gauge("btcfast_transport_sent").get() >= 3);
        assert_eq!(registry.gauge("btcfast_transport_failed").get(), 0);
        // The journal saw escrow-open plus the payment's five steps, each
        // a Begin + Done append.
        assert!(registry.gauge("btcfast_recovery_journal_appends").get() >= 10);
        assert_eq!(registry.gauge("btcfast_recovery_pending_intents").get(), 0);
        assert_eq!(registry.gauge("btcfast_recovery_payments_tracked").get(), 1);
        assert!(registry.gauge("btcfast_wal_appends").get() >= 10);
        assert!(registry.gauge("btcfast_wal_bytes_appended").get() > 0);
        // One sync per Begin record; nothing checkpointed, so the medium
        // still holds every byte appended.
        assert_eq!(
            registry.gauge("btcfast_wal_syncs").get() * 2,
            registry.gauge("btcfast_wal_appends").get()
        );
        assert_eq!(
            registry.gauge("btcfast_wal_medium_bytes").get(),
            registry.gauge("btcfast_wal_bytes_appended").get()
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
        let registry = Registry::new();
        publish_chaos(&registry, &chaos);
        assert!(registry.gauge("btcfast_recovery_recoveries").get() >= 1);
        assert!(registry.gauge("btcfast_recovery_replayed_records").get() >= 1);
    }
}
