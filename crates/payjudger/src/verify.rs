//! Alias for `benchmark/`'s measured surface. The header-segment memo
//! that lived here never hit in any workload (DESIGN.md, "Evidence
//! check") and is gone; the name stays until the benchmark-only PR of
//! ROADMAP item 2 (c) drops it. Evidence is checked by
//! [`crate::evidence::check_evidence`].

use btcfast_btcsim::spv::{HeaderSegment, SpvError};
use btcfast_btcsim::U256;

/// Zero-sized stand-in for the deleted memoizing verifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvidenceVerifier;

impl EvidenceVerifier {
    /// [`HeaderSegment::verify`].
    ///
    /// # Errors
    ///
    /// The first [`SpvError`] in header order.
    pub fn verify_segment(
        &self,
        segment: &HeaderSegment,
        min_target: &U256,
    ) -> Result<U256, SpvError> {
        segment.verify(min_target)
    }

    /// Nothing to clear; the benchmark's cold probes still call it.
    #[doc(hidden)]
    pub fn clear_cache(&self) {}
}
