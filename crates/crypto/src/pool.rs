//! A scoped worker pool for coarse-grained parallel work.
//!
//! The sharded payment engine runs whole shared-nothing simulation shards
//! side by side. This pool fans such items out over scoped `std::thread`
//! workers (no external dependencies, no long-lived threads) and
//! preserves input order in the results, so callers can substitute
//! [`WorkerPool::map_coarse`] for `iter().map()` without changing
//! semantics.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// A fixed-width scoped-thread worker pool for pure batch computations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::with_default_parallelism()
    }
}

impl WorkerPool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the host's available parallelism, read once per
    /// process: on Linux each read re-parses the cgroup quota files.
    pub fn with_default_parallelism() -> WorkerPool {
        static THREADS: OnceLock<usize> = OnceLock::new();
        WorkerPool::new(*THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, preserving order, so results are
    /// independent of the worker count. Runs inline on a single-worker
    /// pool or for fewer than two items; otherwise splits the items into
    /// contiguous chunks, one scoped thread each. Meant for coarse items
    /// (whole simulation shards) whose work dwarfs thread-spawn latency.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the worker's panic aborts the batch).
    pub fn map_coarse<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads == 1 || items.len() < 2 {
            return items.iter().map(f).collect();
        }
        let chunk_len = items.len().div_ceil(self.threads);
        let f = &f;
        let mut chunks: Vec<Vec<R>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_len)
                .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
                .collect();
            chunks = handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect();
        });
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_coarse_parallelizes_tiny_batches_and_preserves_order() {
        let items: Vec<u64> = (0..4).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * 7 + 2).collect();
        for threads in [1, 2, 4, 16] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                pool.map_coarse(&items, |i| i * 7 + 2),
                expected,
                "threads={threads}"
            );
        }
        // Chunks that do not divide evenly, and more workers than chunks.
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
        for threads in [2, 7, 64, 1000] {
            assert_eq!(
                WorkerPool::new(threads).map_coarse(&items, |i| i * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
        assert_eq!(
            WorkerPool::new(8).map_coarse::<u8, u8, _>(&[], |x| *x),
            Vec::<u8>::new()
        );
        assert_eq!(
            WorkerPool::new(8).map_coarse(&[9u8], |x| *x + 1),
            vec![10u8]
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(WorkerPool::default().threads() >= 1);
    }
}
