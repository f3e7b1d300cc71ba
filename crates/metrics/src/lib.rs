//! # tacc-metrics — the Table I job metrics, flags, and statistics
//!
//! The analysis half of §IV-A: after collection, "TACC Stats maps the raw
//! output from each node to job ids. Metadata describing each job along
//! with a set of computed metrics are then ingested into a PostgreSQL
//! database."
//!
//! * [`table1`] — every metric of the paper's Table I, with its exact
//!   aggregation semantics: *Average* metrics are Average Rates of Change
//!   ("first averaging the relevant data over time and then over nodes"),
//!   *Maximum* metrics take "the relevant data's delta over each time
//!   interval for each node, then summing over nodes and taking the
//!   maximum resulting delta", and "in the case of ratios the averages
//!   are computed before the ratio is formed". Counter rollover is
//!   corrected per register width.
//! * [`accum`] — streaming accumulators so a quarter's worth of raw
//!   samples computes in one pass without holding samples in memory.
//! * [`flags`] — the automatic job flags of §V-A (metadata storms, GigE
//!   MPI, largemem waste, idle nodes, sudden rises/drops, high CPI, low
//!   vectorization).
//! * [`ingest`] — job metadata + metrics → database rows, the schema the
//!   portal searches.
//! * [`stream`] — incremental flag evaluation: per-job streaming state
//!   updated as samples arrive, provably equal to the batch path at
//!   job end (the batch path is a wrapper over it).
//! * [`sketch`] — a Greenwald–Khanna quantile sketch with a
//!   deterministic `εn` rank-error bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod energy;
pub mod flags;
pub mod ingest;
pub mod memcheck;
pub mod shared;
pub mod sketch;
pub mod stream;
pub mod table1;

pub use accum::{HostAccum, JobAccum};
pub use flags::{Flag, FlagRules};
pub use sketch::{QuantileSketch, DEFAULT_EPS};
pub use stream::{FlagSet, FlagStream, FlagStreams};
pub use table1::{JobMetrics, MetricId};
