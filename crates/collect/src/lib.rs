//! # tacc-collect — the TACC Stats collector
//!
//! This crate reproduces the collection half of the paper (§III): the
//! `tacc_stats` executable and the `tacc_statsd` daemon.
//!
//! * [`record`] — the raw-stats file format: a header carrying hostname,
//!   architecture, and per-device schemas, followed by timestamped record
//!   groups (one value vector per device instance). Serialization and
//!   parsing round-trip. Identity strings (instances, comms, hostnames)
//!   are interned [`tacc_simnode::intern::Sym`]s.
//! * [`codec`] — the buffer-reusing byte codec for that format:
//!   `render_*_into(&mut Vec<u8>)` appends without per-sample
//!   allocations; `decode_into` is the one grammar, decoding a payload
//!   into caller-owned storage against a cache of schema blocks, and
//!   `parse_bytes` / `RawFile::parse` are its stateless wrappers.
//! * [`collectors`] — one collector per device type. MSR- and PCI-space
//!   collectors read binary registers via [`tacc_simnode::SimNode`]
//!   accessors; everything else genuinely parses the procfs/sysfs-style
//!   text that [`tacc_simnode::pseudofs::NodeFs`] renders, through the
//!   same byte tokenizer (`tokens`) the codec's decoder reads with.
//! * [`discovery`] — §III-B auto-configuration: parse `/proc/cpuinfo` to
//!   identify the architecture, detect hyperthreading from topology
//!   fields, and probe for optional hardware (Infiniband, Xeon Phi,
//!   Lustre) gated by the three compile-time [`discovery::BuildOptions`].
//! * [`engine`] — the sampler: runs all collectors, assembles a
//!   [`record::Sample`], and accounts collection cost (the paper's
//!   ~0.09 s busy window and 0.02% overhead).
//! * [`cron`] — the original operation mode (Fig. 1): append to a
//!   node-local log, rotate daily, rsync once a day at a staggered
//!   random time to the central [`archive::Archive`].
//! * [`daemon`] — the new mode (Fig. 2): a sleep-loop service that
//!   publishes every sample to a broker queue immediately, plus the
//!   §VI-C process start/stop signal queue.
//! * [`consumer`] — drains the broker queue into the archive and feeds
//!   online analysis callbacks in (soft) real time; per-host dedup
//!   state is an exact bitmap (`seqs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod codec;
pub mod collectors;
pub mod consumer;
pub mod cron;
pub mod daemon;
pub mod discovery;
pub mod engine;
pub mod record;
mod seqs;
pub mod spool;
mod tokens;

pub use archive::{Archive, RetentionStats};
pub use engine::Sampler;
pub use record::{DeviceRecord, HostHeader, PsRecord, RawFile, Sample};
