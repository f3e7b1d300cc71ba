//! # tacc-simnode — simulated HPC cluster substrate
//!
//! TACC Stats (IPPS 2016) runs on production clusters and reads hardware
//! counters (core MSRs, uncore PCI-space counters, RAPL energy registers),
//! procfs/sysfs text files, Infiniband port counters, and Lustre client
//! statistics. None of that hardware is available here, so this crate
//! implements the closest synthetic equivalent: a deterministic simulated
//! cluster whose nodes expose the *same interfaces* the real collector
//! consumes —
//!
//! * binary model-specific registers read through a [`node::SimNode`]'s
//!   MSR/PCI accessors (with realistic counter widths, so delta logic must
//!   handle rollover),
//! * procfs/sysfs-style *text files* rendered on demand
//!   ([`pseudofs::NodeFs`]), which the collector genuinely parses,
//! * per-process status (`/proc/<pid>/status`-like) records.
//!
//! Counter values are driven by **workload models** ([`apps`]): application
//! profiles that translate simulated wall time into floating-point
//! operations, memory traffic, Lustre metadata requests, Infiniband bytes,
//! and so on. Profiles are calibrated so that population statistics land in
//! the bands the paper reports for Stampede (§V-A of the paper).
//!
//! Everything is deterministic: time comes from one [`clock::SimClock`]
//! and randomness from seeded RNGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod clock;
pub mod cluster;
pub mod counter;
pub mod devices;
pub mod digits;
pub mod faults;
pub mod intern;
pub mod lustre_server;
pub mod mem;
pub mod node;
pub mod pool;
pub mod pseudofs;
pub mod schema;
pub mod topology;
pub mod workload;

pub use clock::{SimClock, SimDuration, SimTime};
pub use cluster::SimCluster;
pub use faults::FaultPlan;
pub use intern::{Sym, SymbolTable};
pub use node::SimNode;
pub use pool::WorkerPool;
pub use topology::{CpuArch, NodeTopology};
