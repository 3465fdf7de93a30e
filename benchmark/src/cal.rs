//! Calibration kernels: the unit wall-clock cost is expressed in.
//!
//! Raw wall time means little on another machine and swings by half on a
//! shared one, so a run's cost is reported in units of a *calibration
//! round* run after every slice: four independent ALU chains (rotate,
//! 64-bit and 128-bit multiply — throughput-bound like real code, so a busy
//! sibling hyperthread slows them too) plus a dependent-load chase over a
//! 4 MiB random cycle. Both kernels do a fixed amount of work and their
//! results are checked against pinned constants, so the optimiser cannot
//! shorten or drop them.

use crate::rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Steps of each ALU chain (≈15 ms for the four on the reference host).
const ALU_ITERS: u64 = 2_700_000;
/// `u32` slots of the chase buffer: 4 MiB.
const MEM_SLOTS: usize = 1 << 20;
/// Dependent loads per round (≈18 ms on the reference host).
const MEM_STEPS: usize = 400_000;
/// Seed of the chase permutation; fixed, so every run chases the same cycle.
const MEM_SEED: u64 = 0xCA11_B8A7_E5EE_D001;

/// A calibration round on the reference host, milliseconds: what set-up
/// time is scaled to, and what turns `mcal` back into time (1 mcal = 33 µs).
pub const REFERENCE_ROUND_MS: f64 = 33.0;

/// Pinned result of [`alu_kernel`].
pub const ALU_CHECKSUM: u64 = 0xD548_932E_0EF1_4931;
/// Pinned result of [`Calibrator::mem_kernel`].
pub const MEM_CHECKSUM: u32 = 57_847;

/// Four independent chains of rotate, 64-bit multiply and 128-bit multiply.
pub fn alu_kernel() -> u64 {
    let mut lanes: [u64; 4] = black_box([0x9E37_79B9_7F4A_7C15, 2, 3, 4]);
    for i in 0..ALU_ITERS {
        for x in &mut lanes {
            let y = x.rotate_left(13).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i;
            let wide =
                u128::from(y).wrapping_mul(0x94D0_49BB_1331_11EB_u128 + (u128::from(i) << 64));
            *x = (wide as u64) ^ ((wide >> 64) as u64);
        }
    }
    lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]
}

/// Wall time of one calibration round, split by kernel.
#[derive(Clone, Copy, Debug)]
pub struct CalRound {
    /// ALU chains, milliseconds.
    pub alu_ms: f64,
    /// Pointer chase, milliseconds.
    pub mem_ms: f64,
}

impl CalRound {
    /// The round's total, milliseconds: the denominator of `mcal`.
    pub fn total_ms(&self) -> f64 {
        self.alu_ms + self.mem_ms
    }
}

/// Owns the chase buffer; building it is part of set-up time.
pub struct Calibrator {
    next: Vec<u32>,
}

impl Calibrator {
    /// Builds the 4 MiB single-cycle permutation (Sattolo's shuffle).
    pub fn new() -> Calibrator {
        let mut next: Vec<u32> = (0..MEM_SLOTS as u32).collect();
        let mut rng = SplitMix64::new(MEM_SEED);
        for i in (1..MEM_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        Calibrator { next }
    }

    /// Follows the cycle for a fixed number of dependent loads.
    pub fn mem_kernel(&self) -> u32 {
        let mut at: u32 = black_box(0);
        for _ in 0..MEM_STEPS {
            at = self.next[at as usize];
        }
        at
    }

    /// Runs one calibration round and verifies both checksums.
    ///
    /// # Panics
    ///
    /// Panics when a kernel returns anything but its pinned checksum: the
    /// work was not done, so every normalised cost would be meaningless.
    pub fn round(&self) -> CalRound {
        let t0 = Instant::now();
        let alu = black_box(alu_kernel());
        let t1 = Instant::now();
        let mem = black_box(self.mem_kernel());
        let t2 = Instant::now();
        assert_eq!(alu, ALU_CHECKSUM, "ALU calibration kernel checksum");
        assert_eq!(mem, MEM_CHECKSUM, "memory calibration kernel checksum");
        CalRound {
            alu_ms: (t1 - t0).as_secs_f64() * 1e3,
            mem_ms: (t2 - t1).as_secs_f64() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_return_their_pinned_checksums() {
        assert_eq!(alu_kernel(), ALU_CHECKSUM);
        assert_eq!(Calibrator::new().mem_kernel(), MEM_CHECKSUM);
    }

    #[test]
    fn chase_buffer_is_one_cycle_over_every_slot() {
        let cal = Calibrator::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = cal.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, MEM_SLOTS);
    }
}
