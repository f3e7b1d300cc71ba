//! # tacc-core — the assembled monitoring system
//!
//! The top-level façade tying the substrates together into the system of
//! the paper:
//!
//! * [`config`] — cluster + monitoring-mode configuration,
//! * [`system`] — [`system::MonitoringSystem`]: simulated cluster +
//!   scheduler + per-node collectors (cron or daemon mode) + broker +
//!   consumer + archive + metric pipeline + job database + optional
//!   time-series database, driven in simulated time,
//! * [`population`] — the fast path for §V-scale experiments: schedule a
//!   full synthetic quarter for queue dynamics, then simulate each job's
//!   nodes in isolation (chunked across the [`pool::WorkerPool`]) to
//!   compute its Table I metrics and ingest them,
//! * [`online`] — §VI-B automated real-time analysis: watches the
//!   daemon-mode sample stream and raises alerts (e.g. metadata storms)
//!   within a sampling interval of onset, long before the cron-mode
//!   archive would even contain the data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod intern;
pub mod mem;
pub mod online;
pub mod pool;
pub mod population;
pub mod system;

pub use config::{Mode, SystemConfig};
pub use intern::{Sym, SymbolTable};
pub use mem::{CacheCounters, MemoryBudget, Pressure, TtlLru, TtlLruConfig};
pub use online::{AdaptiveConfig, Alert, AlertKind, OnlineAnalyzer, OnlineConfig};
pub use pool::{Scratch, WorkerPool};
pub use population::{PopulationResult, PopulationRunner};
pub use system::{DeliveryReport, MonitoringSystem};
