//! # tacc-portal — the web-portal analogue
//!
//! §IV-B of the paper describes a Django portal over the PostgreSQL
//! database; its artefacts are what this crate regenerates, rendered as
//! text instead of HTML (the analyses are identical; only the medium
//! differs):
//!
//! * [`search`] — the front page (Fig. 3): metadata filters plus up to
//!   three *Search fields* (`metric name` + comparison suffix +
//!   threshold), returning the job list with its metadata columns and
//!   the flagged-job sublist.
//! * [`hist`] — the automatic four-panel histogram every query returns
//!   (Fig. 4): jobs versus runtime, nodes, queue wait time, and maximum
//!   metadata requests.
//! * [`detail`] — the per-job detail view (Fig. 5): six per-node
//!   time-series panels (GFLOPS, memory bandwidth, memory usage, Lustre
//!   bandwidth, Infiniband traffic, CPU user fraction).
//! * [`render`] — text tables and sparklines.
//! * [`fused`] — the fused Fig. 4 scan: all four panels' extents, then
//!   all four panels' dense bucket counts, each from one walk over the
//!   matched rows.
//! * [`cache`] — the watermark-keyed query cache fronting searches,
//!   Fig. 4 panels, and job-detail pages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod detail;
pub mod fused;
pub mod hist;
pub mod render;
pub mod search;

pub use cache::QueryCache;
pub use hist::{Fig4Panels, Histogram};
pub use search::{JobList, SearchSpec};
