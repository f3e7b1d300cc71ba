//! # tacc-core — the assembled monitoring system
//!
//! The top-level façade tying the substrates together into the system of
//! the paper:
//!
//! * [`config`] — cluster + monitoring-mode configuration,
//! * [`pipeline`] — [`pipeline::Pipeline`]: the one place the collection
//!   chain is wired — simulated cluster + per-node collectors (cron or
//!   daemon mode) + broker + consumer + archive + optional time-series
//!   mirror — with public stages (`apply_faults`, `advance`, `collect`,
//!   `drain`, `heal`) any driver calls in its own order,
//! * [`system`] — [`system::MonitoringSystem`]: the scheduler, the
//!   streaming metric pipeline, the job database and online analysis
//!   driving a [`pipeline::Pipeline`] in simulated time,
//! * [`population`] — the fast path for §V-scale experiments: schedule a
//!   full synthetic quarter for queue dynamics, then simulate each job's
//!   nodes in isolation (chunked across the worker pool) to compute its
//!   Table I metrics and ingest them,
//! * [`online`] — §VI-B automated real-time analysis: watches the
//!   daemon-mode sample stream and raises alerts (e.g. metadata storms)
//!   within a sampling interval of onset, long before the cron-mode
//!   archive would even contain the data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod online;
pub mod pipeline;
pub mod population;
pub mod system;

pub use config::{Mode, SystemConfig};
pub use online::{AdaptiveConfig, Alert, AlertKind, OnlineAnalyzer, OnlineConfig};
pub use pipeline::{DeliveryReport, Pipeline};
pub use population::{PopulationResult, PopulationRunner};
pub use system::MonitoringSystem;
