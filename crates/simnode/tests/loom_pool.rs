//! Model-checked worker-pool handoff: the atomic part cursor, the
//! result slots and the scratch check-out pile, explored across many
//! randomized schedules.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p tacc-simnode --test loom_pool
//! ```
//!
//! Under `--cfg loom` the pool's sync shim (`pool::sync`) swaps the
//! vendored `parking_lot` primitives for the `loom` stand-in's
//! instrumented versions: every slot or scratch-pile lock and every
//! part-cursor `fetch_add` becomes a scheduler-perturbation point, and
//! `loom::model` re-runs each closure under `LOOM_ITERS` (default 200)
//! distinct randomized schedules. The invariants below must hold on
//! every explored schedule. Without `--cfg loom` this file compiles to
//! nothing, so plain `cargo test` is unaffected.

#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};
use tacc_simnode::pool::WorkerPool;

/// The atomic part cursor hands every part to exactly one worker, and
/// `map_parts` slots each result at its part index regardless of which
/// worker claimed it.
#[test]
fn map_parts_covers_every_part_exactly_once() {
    loom::model(|| {
        let pool = WorkerPool::new(3);
        let claims: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let out = pool.map_parts(7, |part, _scratch| {
            if let Some(c) = claims.get(part) {
                c.fetch_add(1, Ordering::SeqCst);
            }
            part * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "part {i} claimed once");
        }
    });
}
