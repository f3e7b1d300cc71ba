//! # tacc-tsdb — tagged time-series database (OpenTSDB substitute)
//!
//! §VI-A of the paper: "we are importing data into the time-series
//! database OpenTSDB. The data in this database is organized into
//! time-series with each series labeled by a tuple of tags, where a tag
//! in our setup consists of a host name, device type, device name, and
//! event name. The time-series can be aggregated along any subset of
//! these tags and their values."
//!
//! This crate implements exactly that: series keyed by the 4-tuple
//! ([`SeriesKey`]), wildcard tag filters ([`TagFilter`]), aggregation
//! across matching series with downsampling ([`TsDb::aggregate`]), and
//! the correlation query the section motivates ("a particular user's
//! metadata requests … could be related to other users' increased Lustre
//! operation wait times") via [`stats::pearson`] over aligned buckets.
//!
//! The store can also run **durable** ([`TsDb::recover`]): each shard
//! keeps a CRC-framed write-ahead log for unsealed series tails and an
//! append-only segment file of sealed columnar blocks, compacts them
//! by generation, and recovers from a kill at *any* byte offset losing
//! at most the unsynced WAL tail — with conservation accounting in
//! [`RecoveryReport`]. See [`vfs`] (fault-injectable file layer) and
//! [`recover`]; the WAL and segment formats live in `wal.rs` and
//! `segment.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod recover;
mod segment;
pub mod series;
pub mod shard;
pub mod stats;
pub mod store;
pub mod vfs;
mod wal;

pub use block::{BlockCursor, SealScratch, SealedBlock, SeriesBlocks, SEAL_THRESHOLD};
pub use recover::{DurOptions, RecoveryReport, SegmentCheck};
pub use series::{SeriesKey, TagFilter};
pub use shard::{shard_of, DEFAULT_SHARDS};
pub use store::{Aggregation, DataPoint, DurabilityStats, TsDb};
pub use tacc_simnode::mem::{CacheCounters, MemoryBudget, TtlLru, TtlLruConfig};
pub use vfs::{DiskError, DurFile, FsVfs, MemVfs, Vfs};
