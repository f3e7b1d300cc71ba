//! Hand-rolled scoped worker pool for the parallel ingest/query path.
//!
//! The paper's deployment runs one collector pipeline per cluster while
//! thousands of nodes publish concurrently; the reproduction's fan-out
//! sites (tsdb shard scans, portal partition scans, per-job simulation,
//! cluster advance) need a way to run independent partitions on several
//! cores without pulling in an external runtime. This module is the
//! whole runtime: a [`WorkerPool`] owns a worker count and a pile of
//! reusable [`Scratch`] buffers, and its one entry point,
//! [`WorkerPool::run_parts`] (with [`WorkerPool::map_parts`] /
//! [`WorkerPool::map_parts_into`] collecting results in part order),
//! runs `f(part, scratch)` for every part on short-lived worker threads
//! that are joined before the call returns — so parts may borrow from
//! the caller's stack, and a panicking part propagates to the caller at
//! join (no poisoned pool, no detached threads).
//!
//! Design constraints, in order:
//!
//! * **No new dependencies, no `unsafe`.** Workers are spawned with
//!   [`std::thread::scope`], which provides the borrow-friendly
//!   lifetime contract and panic propagation for free. The pool itself
//!   only persists the scratch buffers and the concurrency cap;
//!   "reuse" means scratch reuse, not thread reuse.
//! * **Panic-free module.** This file is on the `cargo xtask lint`
//!   deny-list: no unwraps, no indexing, no asserts outside tests.
//! * **Loom-checkable handoff.** The part cursor and the scratch pile
//!   are built on a `cfg(loom)`-switched sync shim (the same idiom as
//!   `tacc-broker`), so `--cfg loom` runs the model in
//!   `tests/loom_pool.rs` against the instrumented primitives.
//! * **Degenerate pools stay sequential.** A pool with one worker (or
//!   one part) runs everything inline on the caller thread — no
//!   threads, no extra allocations — so a 1-worker configuration is
//!   observably the sequential path.

/// Sync primitives: instrumented stand-ins under `--cfg loom`, the
/// vendored `parking_lot` shapes otherwise. Both expose an identical
/// `lock()` surface, so the pool body is cfg-free.
mod sync {
    #[cfg(loom)]
    pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
    #[cfg(loom)]
    pub(crate) use loom::sync::Mutex;
    #[cfg(not(loom))]
    pub(crate) use parking_lot::Mutex;
    #[cfg(not(loom))]
    pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
}

use sync::{AtomicUsize, Mutex, Ordering};

/// Per-worker reusable buffers, handed to every task a worker runs.
///
/// Tasks use these columns instead of allocating their own: decoded
/// timestamp/value columns for tsdb scans, a byte buffer for
/// render/parse work. A worker clears (but does not shrink) the scratch
/// between parts, and the pool keeps scratches across calls, so steady
/// state runs at zero scratch allocations.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Decoded timestamp column.
    pub ts: Vec<u64>,
    /// Decoded value column.
    pub vs: Vec<f64>,
    /// Byte buffer for render/encode work.
    pub bytes: Vec<u8>,
}

impl Scratch {
    /// Empty all columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.vs.clear();
        self.bytes.clear();
    }
}

/// A fixed-width scoped worker pool with per-worker scratch reuse.
///
/// The pool persists two things across calls: the worker count and a
/// pile of [`Scratch`] buffers. Worker threads themselves are created
/// per [`run_parts`](WorkerPool::run_parts) call via
/// [`std::thread::scope`] and joined before the call returns, which is
/// what lets parts borrow from the caller and what makes a part's panic
/// propagate to the caller instead of wedging the pool.
pub struct WorkerPool {
    workers: usize,
    scratch: Mutex<Vec<Scratch>>,
}

impl WorkerPool {
    /// A pool running tasks on up to `workers` threads. `0` is treated
    /// as `1`; a 1-worker pool runs everything inline on the caller.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The concurrency cap this pool was built with (always ≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn check_out(&self) -> Scratch {
        let mut pile = self.scratch.lock();
        let mut s = pile.pop().unwrap_or_default();
        drop(pile);
        s.clear();
        s
    }

    fn check_in(&self, s: Scratch) {
        let mut pile = self.scratch.lock();
        // Keep at most one cached scratch per worker slot.
        if pile.len() < self.workers {
            pile.push(s);
        }
    }

    /// Run `f(part, scratch)` for every `part` in `0..parts`, spreading
    /// parts across workers with an atomic cursor (no per-part boxing).
    /// Returns once all parts ran; a panicking part propagates. With
    /// one worker (or one part) the parts run in order on the caller.
    pub fn run_parts<F>(&self, parts: usize, f: F)
    where
        F: Fn(usize, &mut Scratch) + Sync,
    {
        if self.workers <= 1 || parts <= 1 {
            let mut scratch = self.check_out();
            for part in 0..parts {
                scratch.clear();
                f(part, &mut scratch);
            }
            self.check_in(scratch);
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|ts| {
            for _ in 0..self.workers.min(parts) {
                ts.spawn(|| {
                    let mut scratch = self.check_out();
                    loop {
                        let part = next.fetch_add(1, Ordering::Relaxed);
                        if part >= parts {
                            break;
                        }
                        scratch.clear();
                        f(part, &mut scratch);
                    }
                    self.check_in(scratch);
                });
            }
        });
    }

    /// Like [`run_parts`](WorkerPool::run_parts), but collect each
    /// part's return value. Results come back in part order regardless
    /// of which worker ran which part.
    pub fn map_parts<T, F>(&self, parts: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Scratch) -> T + Sync,
    {
        let mut slots = Vec::new();
        self.map_parts_into(parts, &mut slots, f);
        slots.into_iter().flatten().collect()
    }

    /// [`map_parts`](WorkerPool::map_parts) into caller-owned slots:
    /// `slots` is cleared, resized to `parts` entries, and filled with
    /// `Some(f(part, scratch))` in part order. The vector's capacity is
    /// reused across calls, so a caller that holds its slot buffer (the
    /// portal's fused Fig. 4 scan does) runs the whole map path at zero
    /// steady-state allocations — the same contract the per-worker
    /// [`Scratch`] buffers give task-local state.
    fn map_parts_into<T, F>(&self, parts: usize, slots: &mut Vec<Option<T>>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut Scratch) -> T + Sync,
    {
        slots.clear();
        slots.resize_with(parts, || None);
        let shared = Mutex::new(std::mem::take(slots));
        self.run_parts(parts, |part, scratch| {
            let v = f(part, scratch);
            if let Some(slot) = shared.lock().get_mut(part) {
                *slot = Some(v);
            }
        });
        *slots = shared.into_inner();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};

    #[test]
    fn map_parts_preserves_part_order() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let out = pool.map_parts(23, |part, _scratch| part * part);
            let want: Vec<usize> = (0..23).map(|p| p * p).collect();
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn map_parts_into_fills_slots_in_order_and_reuses_capacity() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut slots: Vec<Option<usize>> = Vec::new();
            pool.map_parts_into(17, &mut slots, |part, _scratch| part * 3);
            let want: Vec<Option<usize>> = (0..17).map(|p| Some(p * 3)).collect();
            assert_eq!(slots, want, "workers={workers}");
            // A second call with fewer parts reuses the buffer.
            let cap = slots.capacity();
            pool.map_parts_into(5, &mut slots, |part, _scratch| part);
            assert_eq!(slots, (0..5).map(Some).collect::<Vec<_>>());
            assert_eq!(slots.capacity(), cap, "slot capacity must be reused");
        }
    }

    #[test]
    fn run_parts_covers_every_part_once() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            // Parts borrow from the caller's stack.
            let hits: Vec<StdAtomicUsize> = (0..50).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run_parts(50, |part, _scratch| {
                if let Some(h) = hits.get(part) {
                    h.fetch_add(1, StdOrdering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(StdOrdering::Relaxed) == 1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn scratch_is_cleared_between_parts_and_reused_across_calls() {
        let pool = WorkerPool::new(1);
        pool.run_parts(1, |_part, scratch| {
            scratch.ts.extend_from_slice(&[1, 2, 3]);
            scratch.bytes.extend_from_slice(b"abc");
        });
        pool.run_parts(2, |_part, scratch| {
            assert!(scratch.ts.is_empty(), "scratch must be cleared");
            assert!(scratch.bytes.is_empty(), "scratch must be cleared");
            assert!(scratch.ts.capacity() >= 3, "scratch must be reused");
            scratch.ts.push(9);
        });
    }

    #[test]
    fn part_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_parts(4, |part, _scratch| {
                if part == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool stays usable afterwards.
        let out = pool.map_parts(4, |p, _s| p);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_workers_behaves_as_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map_parts(3, |p, _s| p + 1), vec![1, 2, 3]);
    }
}
