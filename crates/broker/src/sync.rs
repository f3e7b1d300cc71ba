//! Synchronisation primitives for the broker core, swappable for
//! model-instrumented versions under `--cfg loom`.
//!
//! Normal builds use `parking_lot` locks and `std` atomics. Building
//! with `RUSTFLAGS="--cfg loom"` substitutes the `loom` stand-in's
//! instrumented equivalents, whose API is deliberately identical, so
//! `queue.rs` compiles unchanged and the `tests/loom_queue.rs` models
//! can explore many thread interleavings of the same code paths that
//! run in production.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::Mutex;

#[cfg(not(loom))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
