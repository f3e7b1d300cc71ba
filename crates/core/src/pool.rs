//! Re-export of the scoped worker pool.
//!
//! Like the interner, the pool lives at the bottom of the dependency
//! graph (in `tacc-simnode`) so the cluster advance, the sharded tsdb,
//! and the portal partition scans can all share one implementation.
//! This module re-exports it under the top-level façade so downstream
//! users reach it as `tacc_core::pool` without caring where in the
//! graph it lives.

pub use tacc_simnode::pool::{Scratch, WorkerPool};
