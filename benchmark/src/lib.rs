//! System benchmark for the TACC Stats reproduction (see `README.md`).

pub mod alloc;
pub mod client;
pub mod common;
pub mod fleet;
pub mod live;
pub mod pin;
pub mod portal;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
