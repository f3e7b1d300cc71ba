//! The raw-stats record format.
//!
//! Mirrors the structure of tacc_stats raw files:
//!
//! ```text
//! $tacc_stats 2.1
//! $hostname c401-0001
//! $arch sandybridge
//! !cpu FIXED_CTR0,I,C,48 FIXED_CTR1,C,C,48 …
//! !imc CAS_READS,E,C,48 …
//!
//! 1443657600 3001
//! %begin 3001
//! cpu 0 8399450688 10567 …
//! imc 0 122344 61010 …
//! ps 1001 wrf.exe 5000 40960 40960 …
//! 1443658200 3001
//! cpu 0 8399999999 …
//! ```
//!
//! Header lines start with `$`, schema lines with `!`, scheduler marks
//! with `%`, and a line whose first token parses as an integer opens a
//! new timestamped record group ("sample"). Everything round-trips:
//! `parse(render(f)) == f`.

use crate::codec;
use std::collections::BTreeMap;
use std::fmt;
use tacc_simnode::intern::Sym;
use tacc_simnode::schema::{DeviceType, Schema};
use tacc_simnode::topology::CpuArch;
use tacc_simnode::SimTime;

/// Format version string written in the `$tacc_stats` header line.
pub const FORMAT_VERSION: &str = "2.1";

/// Value column of one record line, stored inline when it fits.
///
/// Every schema in Table I is at most 11 events wide (`ps`), so nearly
/// every record's values live in the inline buffer and parsing a raw
/// file allocates nothing per record line — the per-line `Vec<u64>` was
/// the dominant allocation of archive replay. Wider rows (future
/// schemas) spill to a heap `Vec` transparently. Dereferences to
/// `&[u64]`, so readers treat it exactly like the old `Vec`.
#[derive(Clone)]
pub enum ValueVec {
    /// Up to [`ValueVec::INLINE`] values stored in place.
    Inline {
        /// Number of live values in `buf`.
        len: u8,
        /// Inline storage; only `buf[..len]` is meaningful.
        buf: [u64; ValueVec::INLINE],
    },
    /// Spill representation for rows wider than the inline buffer.
    Heap(Vec<u64>),
}

impl ValueVec {
    /// Inline capacity: the widest Table-I schema (`ps`, 11 events)
    /// plus one slot of slack.
    const INLINE: usize = 12;

    /// New empty column.
    pub fn new() -> ValueVec {
        ValueVec::Inline {
            len: 0,
            buf: [0; ValueVec::INLINE],
        }
    }

    /// New column ready to hold `n` values without reallocating.
    pub fn with_capacity(n: usize) -> ValueVec {
        if n <= ValueVec::INLINE {
            ValueVec::new()
        } else {
            ValueVec::Heap(Vec::with_capacity(n))
        }
    }

    /// Append a value, spilling to the heap on inline overflow.
    pub fn push(&mut self, v: u64) {
        match self {
            ValueVec::Inline { len, buf } => {
                let i = usize::from(*len);
                if let Some(slot) = buf.get_mut(i) {
                    *slot = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(ValueVec::INLINE * 2);
                    heap.extend_from_slice(buf.as_slice());
                    heap.push(v);
                    *self = ValueVec::Heap(heap);
                }
            }
            ValueVec::Heap(vs) => vs.push(v),
        }
    }

    /// The live values as a slice.
    pub fn as_slice(&self) -> &[u64] {
        match self {
            ValueVec::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(&[]),
            ValueVec::Heap(vs) => vs.as_slice(),
        }
    }
}

impl Default for ValueVec {
    fn default() -> ValueVec {
        ValueVec::new()
    }
}

impl std::ops::Deref for ValueVec {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl fmt::Debug for ValueVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Content equality regardless of representation: an inline column and
/// a spilled column holding the same values compare equal.
impl PartialEq for ValueVec {
    fn eq(&self, other: &ValueVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueVec {}

impl PartialEq<Vec<u64>> for ValueVec {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<ValueVec> for Vec<u64> {
    fn eq(&self, other: &ValueVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u64]> for ValueVec {
    fn eq(&self, other: &[u64]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u64; N]> for ValueVec {
    fn eq(&self, other: &[u64; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u64>> for ValueVec {
    fn from(vs: Vec<u64>) -> ValueVec {
        if vs.len() <= ValueVec::INLINE {
            vs.into_iter().collect()
        } else {
            ValueVec::Heap(vs)
        }
    }
}

impl<const N: usize> From<[u64; N]> for ValueVec {
    fn from(vs: [u64; N]) -> ValueVec {
        let mut buf = [0; ValueVec::INLINE];
        match (buf.get_mut(..N), u8::try_from(N)) {
            (Some(head), Ok(len)) => {
                head.copy_from_slice(&vs);
                ValueVec::Inline { len, buf }
            }
            _ => ValueVec::Heap(vs.to_vec()),
        }
    }
}

impl FromIterator<u64> for ValueVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> ValueVec {
        let mut out = ValueVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a> IntoIterator for &'a ValueVec {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Values read from one device instance at one sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRecord {
    /// Device type.
    pub dev_type: DeviceType,
    /// Instance name (CPU number, socket number, filesystem, port, …),
    /// interned: the same few names recur every sample, so records
    /// carry a `Copy` symbol instead of re-allocating the text.
    pub instance: Sym,
    /// Register values in schema order, inline up to
    /// [`ValueVec::INLINE`] wide.
    pub values: ValueVec,
}

/// Per-process record from the procfs collector (§III-B item 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsRecord {
    /// Process id.
    pub pid: u32,
    /// Executable name, interned (a node runs the same few binaries
    /// for the duration of a job).
    pub comm: Sym,
    /// Owning uid.
    pub uid: u32,
    /// Values per the `ps` schema (VmSize, VmHWM, VmRSS, VmLck, VmData,
    /// VmStk, VmExe, Threads, utime), inline up to
    /// [`ValueVec::INLINE`] wide.
    pub values: ValueVec,
}

/// One timestamped record group: everything collected on a node at one
/// instant.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Sample {
    /// Collection time.
    pub time: SimTimeRepr,
    /// Job ids active on the node at collection time.
    pub jobids: Vec<String>,
    /// Scheduler marks recorded with this sample (`begin <jobid>`,
    /// `end <jobid>`, `procstart <pid>`, `procend <pid>`).
    pub marks: Vec<String>,
    /// Counter values per device instance.
    pub devices: Vec<DeviceRecord>,
    /// Per-process records.
    pub processes: Vec<PsRecord>,
}

/// Serializable wrapper for [`SimTime`] (seconds resolution in files, but
/// nanoseconds kept in memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SimTimeRepr(pub u64);

impl From<SimTime> for SimTimeRepr {
    fn from(t: SimTime) -> Self {
        SimTimeRepr(t.as_nanos())
    }
}

impl SimTimeRepr {
    /// As a [`SimTime`].
    pub fn time(self) -> SimTime {
        SimTime::from_nanos(self.0)
    }

    /// Whole Unix seconds.
    pub fn as_secs(self) -> u64 {
        self.time().as_secs()
    }
}

impl Sample {
    /// Values of one device instance, if present.
    pub fn device(&self, dt: DeviceType, instance: &str) -> Option<&[u64]> {
        self.devices
            .iter()
            .find(|d| d.dev_type == dt && d.instance == instance)
            .map(|d| d.values.as_slice())
    }

    /// All records of one device type.
    pub fn devices_of(&self, dt: DeviceType) -> impl Iterator<Item = &DeviceRecord> {
        self.devices.iter().filter(move |d| d.dev_type == dt)
    }
}

/// Static per-host header: identity plus the schemas needed to interpret
/// record lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostHeader {
    /// Hostname, interned (one distinct value per node for the life of
    /// the process; every message repeats it).
    pub hostname: Sym,
    /// Detected architecture.
    pub arch: CpuArch,
    /// Schema per device type present on the host.
    pub schemas: BTreeMap<DeviceType, Schema>,
}

/// A complete raw-stats file: header plus samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFile {
    /// Host identity and schemas.
    pub header: HostHeader,
    /// Per-host message sequence number (daemon-mode messages only;
    /// cron-mode log files have none). Monotonically increasing per
    /// host, it is what lets the consumer deduplicate at-least-once
    /// redeliveries and detect gaps.
    pub seq: Option<u64>,
    /// Timestamped record groups, in collection order.
    pub samples: Vec<Sample>,
}

/// Error from [`RawFile::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raw-stats parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl RawFile {
    /// New empty file for a host.
    pub fn new(header: HostHeader) -> RawFile {
        RawFile {
            header,
            seq: None,
            samples: Vec::new(),
        }
    }

    /// Render the whole file as text: the bytes of
    /// [`codec::render_file_into`], which writes only `&str`s and ASCII,
    /// so the UTF-8 conversion never substitutes anything.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        codec::render_file_into(self, &mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Parse a rendered file: [`codec::parse_bytes`] over its bytes (the
    /// one grammar lives in [`codec::decode_into`]).
    pub fn parse(text: &str) -> Result<RawFile, ParseError> {
        codec::parse_bytes(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn header() -> HostHeader {
        let arch = CpuArch::SandyBridge;
        let mut schemas = BTreeMap::new();
        for dt in [
            DeviceType::Cpu,
            DeviceType::Cpustat,
            DeviceType::Mdc,
            DeviceType::Ps,
        ] {
            schemas.insert(dt, dt.schema(arch));
        }
        HostHeader {
            hostname: "c401-0001".into(),
            arch,
            schemas,
        }
    }

    fn sample(t: u64) -> Sample {
        Sample {
            time: SimTimeRepr::from(SimTime::from_secs(t)),
            jobids: vec!["3001".to_string()],
            marks: vec!["begin 3001".to_string()],
            devices: vec![
                DeviceRecord {
                    dev_type: DeviceType::Cpu,
                    instance: "0".into(),
                    values: vec![1, 2, 3, 4, 5, 6, 7, 8, 9].into(),
                },
                DeviceRecord {
                    dev_type: DeviceType::Mdc,
                    instance: "scratch".into(),
                    values: vec![100, 5000].into(),
                },
            ],
            processes: vec![PsRecord {
                pid: 1001,
                comm: "wrf.exe".into(),
                uid: 5000,
                values: vec![10, 20, 30, 0, 5, 1, 2, 16, 12345, 0xFFFF, 3].into(),
            }],
        }
    }

    /// A single-sample message as text, through the one renderer.
    fn message(h: &HostHeader, s: &Sample, seq: Option<u64>) -> String {
        let mut out = Vec::new();
        codec::render_message_into(h, s, seq, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// [`header`]'s `$`/`!` block followed by `body`.
    fn header_then(body: &str) -> String {
        let mut out = Vec::new();
        codec::render_header_into(&header(), &mut out);
        out.extend_from_slice(body.as_bytes());
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn roundtrip_small_file() {
        let f = RawFile {
            header: header(),
            seq: None,
            samples: vec![sample(1443657600), sample(1443658200)],
        };
        let text = f.render();
        let parsed = RawFile::parse(&text).expect("parse");
        assert_eq!(parsed, f);
    }

    #[test]
    fn header_roundtrips_for_every_device_type_and_arch() {
        // Every device type's schema must survive the `!`-line header
        // serialization on every architecture — this is the on-the-wire
        // contract between the daemon's rendered messages and the
        // consumer's parser.
        for arch in [CpuArch::Nehalem, CpuArch::SandyBridge, CpuArch::Haswell] {
            for dt in DeviceType::ALL {
                let mut schemas = BTreeMap::new();
                schemas.insert(dt, dt.schema(arch));
                let h = HostHeader {
                    hostname: "c401-0001".into(),
                    arch,
                    schemas,
                };
                let f = RawFile {
                    header: h.clone(),
                    seq: None,
                    samples: vec![],
                };
                let parsed = RawFile::parse(&f.render()).expect("header parse");
                assert_eq!(parsed.header, h, "{dt} on {arch:?}");
            }
            // And all device types together in one header.
            let mut schemas = BTreeMap::new();
            for dt in DeviceType::ALL {
                schemas.insert(dt, dt.schema(arch));
            }
            let h = HostHeader {
                hostname: "c401-0001".into(),
                arch,
                schemas,
            };
            let f = RawFile {
                header: h.clone(),
                seq: Some(7),
                samples: vec![],
            };
            let parsed = RawFile::parse(&f.render()).expect("full header parse");
            assert_eq!(parsed.header, h);
            assert_eq!(parsed.seq, Some(7));
        }
    }

    #[test]
    fn empty_jobids_render_as_dash() {
        let mut s = sample(100);
        s.jobids.clear();
        let f = RawFile {
            header: header(),
            seq: None,
            samples: vec![s],
        };
        let text = f.render();
        assert!(text.contains("\n100 -\n"), "{text}");
        let parsed = RawFile::parse(&text).unwrap();
        assert!(parsed.samples[0].jobids.is_empty());
    }

    #[test]
    fn message_roundtrip() {
        let h = header();
        let s = sample(42);
        let msg = message(&h, &s, None);
        let parsed = RawFile::parse(&msg).unwrap();
        assert_eq!(parsed.header, h);
        assert_eq!(parsed.samples, vec![s]);
    }

    #[test]
    fn seq_roundtrips_through_message() {
        let h = header();
        let s = sample(42);
        let msg = message(&h, &s, Some(137));
        assert!(msg.contains("$seq 137\n"), "{msg}");
        let parsed = RawFile::parse(&msg).unwrap();
        assert_eq!(parsed.seq, Some(137));
        assert_eq!(parsed.samples, vec![s]);
        // A message without a $seq line parses to None (cron-mode logs,
        // pre-sequence producers).
        let legacy = RawFile::parse(&message(&h, &sample(43), None)).unwrap();
        assert_eq!(legacy.seq, None);
    }

    #[test]
    fn bad_seq_is_a_parse_error() {
        let text = "$tacc_stats 2.1\n$hostname h\n$arch haswell\n$seq x\n";
        assert!(RawFile::parse(text).is_err());
    }

    #[test]
    fn parse_rejects_value_count_mismatch() {
        let text = header_then("100 3001\nmdc scratch 1 2 3\n");
        let e = RawFile::parse(&text).unwrap_err();
        assert!(e.message.contains("value count"), "{e}");
    }

    #[test]
    fn parse_rejects_record_before_timestamp() {
        let text = header_then("mdc scratch 1 2\n");
        assert!(RawFile::parse(&text).is_err());
    }

    #[test]
    fn parse_rejects_unknown_device_and_bad_values() {
        assert!(RawFile::parse(&header_then("100 -\nwarp 0 1 2\n")).is_err());
        assert!(RawFile::parse(&header_then("100 -\nmdc scratch 1 x\n")).is_err());
    }

    #[test]
    fn parse_requires_identity() {
        assert!(RawFile::parse("!cpu FIXED_CTR0,I,C,48\n").is_err());
        assert!(RawFile::parse("$hostname h\n100 -\n").is_err());
    }

    #[test]
    fn multiple_jobids_shared_node() {
        let mut s = sample(100);
        s.jobids = vec!["3001".into(), "3002".into()];
        let f = RawFile {
            header: header(),
            seq: None,
            samples: vec![s],
        };
        let parsed = RawFile::parse(&f.render()).unwrap();
        assert_eq!(parsed.samples[0].jobids, vec!["3001", "3002"]);
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = "$tacc_stats 9.9\n$hostname h\n$arch haswell\n";
        assert!(RawFile::parse(text).is_err());
    }

    proptest! {
        /// Arbitrary device values round-trip through render/parse.
        #[test]
        fn roundtrip_arbitrary_values(
            vals in proptest::collection::vec(any::<u64>(), 2),
            t in 1u64..4_000_000_000,
        ) {
            let mut schemas = BTreeMap::new();
            schemas.insert(DeviceType::Mdc, DeviceType::Mdc.schema(CpuArch::Haswell));
            let f = RawFile {
                header: HostHeader {
                    hostname: "h".into(),
                    arch: CpuArch::Haswell,
                    schemas,
                },
                seq: None,
                samples: vec![Sample {
                    time: SimTimeRepr::from(SimTime::from_secs(t)),
                    jobids: vec!["1".to_string()],
                    marks: vec![],
                    devices: vec![DeviceRecord {
                        dev_type: DeviceType::Mdc,
                        instance: "scratch".into(),
                        values: vals.clone().into(),
                    }],
                    processes: vec![],
                }],
            };
            let parsed = RawFile::parse(&f.render()).unwrap();
            prop_assert_eq!(parsed, f);
        }
    }
}
