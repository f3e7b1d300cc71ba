//! Umbrella crate for the `tacc-stats-rs` workspace.
//!
//! Re-exports the public API of every sub-crate so examples and
//! downstream users can depend on a single crate.

pub use tacc_broker as broker;
pub use tacc_collect as collect;
pub use tacc_core as core;
pub use tacc_jobdb as jobdb;
pub use tacc_metrics as metrics;
pub use tacc_portal as portal;
pub use tacc_scheduler as scheduler;
pub use tacc_simnode as simnode;
pub use tacc_tsdb as tsdb;

pub mod claims;
pub mod soak;
