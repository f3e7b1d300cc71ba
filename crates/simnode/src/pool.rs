//! The runtime's one way onto threads: a scoped fan-out over contiguous
//! chunks of a slice.
//!
//! Every fan-out site (a large cluster's node advance, the population
//! runner's per-job phase, the claims table's WRF population) cuts a
//! slice into contiguous chunks that share no mutable state, runs them
//! at once, and uses the results in chunk order.
//! [`WorkerPool::map_chunks`] is exactly that: one
//! [`std::thread::scope`] thread per chunk, each result handed back
//! through its join handle. Threads share nothing but `&` borrows, so
//! there is no lock and no atomic here, and the borrow checker proves
//! the fan-out race-free. Chunks may borrow the caller's stack, and a
//! chunk's panic is re-raised in the caller once every thread has
//! joined. This file is on the `cargo xtask lint` panic deny-list.

/// A worker count: the most chunks [`map_chunks`](WorkerPool::map_chunks)
/// cuts a slice into.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of up to `workers` threads. `0` is treated as `1`; a
    /// 1-worker pool runs everything inline on the caller.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Cut `items` into at most `workers` contiguous chunks of at least
    /// `min_chunk` items each (sizes differ by at most one), run
    /// `f(first, chunk)` for each, where `first` is the index of the
    /// chunk's first item, and return the results in chunk order. A
    /// single chunk runs inline on the caller's thread; more run one per
    /// scoped thread, and the first chunk's panic (in chunk order) is
    /// re-raised here.
    pub fn map_chunks<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let parts = self.workers.min(items.len() / min_chunk.max(1));
        if parts <= 1 {
            return vec![f(0, items)];
        }
        let (size, extra) = (items.len() / parts, items.len() % parts);
        let f = &f;
        std::thread::scope(|scope| {
            let (mut rest, mut first) = (items, 0);
            let handles: Vec<_> = (0..parts)
                .map(|part| {
                    let len = size + usize::from(part < extra);
                    let (chunk, tail) = rest.split_at_checked(len).unwrap_or((rest, &[]));
                    let at = first;
                    (rest, first) = (tail, first + chunk.len());
                    scope.spawn(move || f(at, chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_slice_in_order() {
        let items: Vec<usize> = (0..23).collect();
        for workers in [0, 1, 2, 4, 8] {
            let out = WorkerPool::new(workers).map_chunks(&items, 1, |first, chunk| {
                assert_eq!(chunk.first(), Some(&first));
                chunk.iter().map(|i| i * i).collect::<Vec<_>>()
            });
            assert_eq!(out.len(), workers.max(1), "one chunk per worker");
            let want: Vec<usize> = items.iter().map(|i| i * i).collect();
            assert_eq!(out.concat(), want, "workers={workers}");
        }
    }

    #[test]
    fn min_chunk_bounds_the_chunk_count_and_size() {
        let (pool, items) = (WorkerPool::new(8), [0u8; 403]);
        assert_eq!(pool.map_chunks(&items, 200, |_, c| c.len()), [202, 201]);
        assert_eq!(pool.map_chunks(&items[..399], 200, |_, c| c.len()), [399]);
        assert_eq!(pool.map_chunks(&items[..0], 1, |_, c| c.len()), [0]);
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(|| {
            pool.map_chunks(&[0, 1, 2, 3], 1, |first, _| assert!(first < 2, "boom"));
        });
        assert!(caught.is_err(), "a worker's panic must reach the caller");
        // The pool stays usable afterwards.
        assert_eq!(pool.map_chunks(&[0, 1, 2, 3], 1, |first, _| first), [0, 2]);
    }
}
