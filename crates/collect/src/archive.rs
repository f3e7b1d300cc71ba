//! The central raw-stats archive.
//!
//! Both operation modes end here: cron mode rsyncs whole day-logs once a
//! day; daemon mode appends samples as the consumer receives them. The
//! archive is keyed by `(hostname, day)` like the real
//! `/scratch/projects/tacc_stats/archive/<host>/<day>` layout, stores the
//! raw byte format, and tracks **data-availability latency** — the time
//! between a sample's collection and its arrival in the archive — which
//! is the quantity Fig. 1 vs Fig. 2 trades off.
//!
//! # Zero-copy replay
//!
//! Day files are stored as raw byte buffers keyed by interned hostnames
//! (`(Sym, u64)`), and every parse ([`Archive::parse`],
//! [`Archive::parse_all`]) feeds the stored bytes to
//! [`codec::parse_bytes`] *in place*, under the archive lock —
//! replaying a day of archives never copies file contents. The
//! borrow-based readers ([`Archive::with_bytes`]) extend the same
//! contract to callers.

use crate::codec;
use crate::record::{ParseError, RawFile};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use tacc_simnode::intern::Sym;
use tacc_simnode::SimTime;

#[derive(Default)]
struct ArchiveInner {
    /// (interned hostname, day-start seconds) → raw file bytes.
    files: BTreeMap<(Sym, u64), Vec<u8>>,
    /// Streaming latency accounting (count, sum, max) — O(1) memory no
    /// matter how many samples flow through, so a fleet-scale soak
    /// never grows a per-sample vector here.
    lat_count: usize,
    lat_sum_secs: f64,
    lat_max_secs: f64,
    /// Raw-byte retention bound; `0` = unlimited.
    retention_bytes: usize,
    /// Total raw bytes currently stored in `files`.
    stored_bytes: usize,
    evicted_files: u64,
    evicted_bytes: u64,
}

impl ArchiveInner {
    /// Enforce the retention bound: evict whole host-day files, oldest
    /// day first, until stored bytes fit. Whole-file granularity
    /// mirrors the real deployment's day-log rotation (`tar` + drop of
    /// aged directories), and latency accounting is unaffected — those
    /// samples *were* archived on time; retention is about raw-byte
    /// residency, not delivery.
    fn enforce_retention(&mut self) {
        while self.retention_bytes > 0 && self.stored_bytes > self.retention_bytes {
            let oldest = self
                .files
                .iter()
                .min_by_key(|(&(_, day), _)| day)
                .map(|(&k, _)| k);
            let Some(key) = oldest else {
                break;
            };
            if let Some(bytes) = self.files.remove(&key) {
                self.stored_bytes = self.stored_bytes.saturating_sub(bytes.len());
                self.evicted_files += 1;
                self.evicted_bytes += bytes.len() as u64;
            }
        }
    }
}

/// The central archive, shared through an `Arc` by the consumer and
/// the pipeline that owns it, on one thread; the `Mutex` is what lets
/// them append through `&self`.
#[derive(Default)]
pub struct Archive {
    inner: Mutex<ArchiveInner>,
}

/// Latency summary over everything stored so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: usize,
    /// Mean collection→availability latency in seconds.
    pub mean_secs: f64,
    /// Maximum latency in seconds.
    pub max_secs: f64,
}

/// Raw-byte retention accounting ([`Archive::set_retention_bytes`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionStats {
    /// Current raw bytes resident across host-day files.
    pub stored_bytes: usize,
    /// Configured bound (`0` = unlimited).
    pub retention_bytes: usize,
    /// Whole host-day files evicted to stay under the bound.
    pub evicted_files: u64,
    /// Raw bytes those evictions released.
    pub evicted_bytes: u64,
}

impl Archive {
    /// New empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Store (or append to) the raw file of `host` for the day containing
    /// `day_start`. `sample_times` are the collection instants of the
    /// samples in `bytes`, used for latency accounting against
    /// `stored_at`. The consumer and the cron sync hand their render
    /// buffers over as they are, and the hostname arrives pre-interned
    /// so the day-map key allocates nothing.
    pub fn append_bytes(
        &self,
        host: Sym,
        day_start: SimTime,
        bytes: &[u8],
        sample_times: &[SimTime],
        stored_at: SimTime,
    ) {
        let mut inner = self.inner.lock();
        inner
            .files
            .entry((host, day_start.as_secs()))
            .or_default()
            .extend_from_slice(bytes);
        inner.stored_bytes += bytes.len();
        for t in sample_times {
            let secs = stored_at.duration_since(*t).as_secs_f64();
            inner.lat_count += 1;
            inner.lat_sum_secs += secs;
            inner.lat_max_secs = inner.lat_max_secs.max(secs);
        }
        inner.enforce_retention();
    }

    /// Bound the raw bytes the archive keeps resident (`0` =
    /// unlimited, the default). When an append pushes the total past
    /// the bound, whole host-day files are evicted oldest-day-first
    /// until it fits — the in-memory analogue of rotating aged day
    /// logs off the archive host. Takes effect immediately.
    pub fn set_retention_bytes(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.retention_bytes = bytes;
        inner.enforce_retention();
    }

    /// Retention accounting: resident bytes, bound, evictions.
    pub fn retention_stats(&self) -> RetentionStats {
        let inner = self.inner.lock();
        RetentionStats {
            stored_bytes: inner.stored_bytes,
            retention_bytes: inner.retention_bytes,
            evicted_files: inner.evicted_files,
            evicted_bytes: inner.evicted_bytes,
        }
    }

    /// True if a file exists for `(host, day)`.
    pub fn has_file(&self, host: &str, day_start: SimTime) -> bool {
        self.inner
            .lock()
            .files
            .contains_key(&(Sym::new(host), day_start.as_secs()))
    }

    /// Run `f` over the raw bytes of one host-day file, borrowed in
    /// place under the archive lock — the zero-copy reader.
    pub fn with_bytes<R>(
        &self,
        host: &str,
        day_start: SimTime,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        self.inner
            .lock()
            .files
            .get(&(Sym::new(host), day_start.as_secs()))
            .map(|b| f(b))
    }

    /// Parse one host-day file, straight from the stored bytes.
    pub fn parse(&self, host: &str, day_start: SimTime) -> Option<Result<RawFile, ParseError>> {
        self.with_bytes(host, day_start, codec::parse_bytes)
    }

    /// All `(host, day-start)` keys present. Hostnames come back as the
    /// interned day-map keys; `.as_str()` resolves them for display.
    pub fn keys(&self) -> Vec<(Sym, SimTime)> {
        self.inner
            .lock()
            .files
            .keys()
            .map(|&(h, d)| (h, SimTime::from_secs(d)))
            .collect()
    }

    /// Parse every stored file, in place. The archive normally contains
    /// only well-formed data (it stores what the pipeline rendered), so
    /// an error here means corruption — reported to the caller, never a
    /// panic.
    pub fn parse_all(&self) -> Result<Vec<RawFile>, String> {
        let inner = self.inner.lock();
        inner
            .files
            .iter()
            .map(|(&(h, d), bytes)| {
                codec::parse_bytes(bytes).map_err(|e| format!("archive {h}/{d}: {e}"))
            })
            .collect()
    }

    /// Total samples appended so far (retention evictions do not
    /// subtract — this counts deliveries, not residency).
    pub fn total_samples(&self) -> usize {
        self.inner.lock().lat_count
    }

    /// Latency summary (streaming count/mean/max — O(1) memory).
    pub fn latency_stats(&self) -> LatencyStats {
        let inner = self.inner.lock();
        if inner.lat_count == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            count: inner.lat_count,
            mean_secs: inner.lat_sum_secs / inner.lat_count as f64,
            max_secs: inner.lat_max_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HostHeader;
    use std::collections::BTreeMap;
    use tacc_simnode::schema::DeviceType;
    use tacc_simnode::topology::CpuArch;

    fn tiny_file_text(host: &str, t: u64) -> String {
        let mut schemas = BTreeMap::new();
        schemas.insert(
            DeviceType::Mdc,
            DeviceType::Mdc.schema(CpuArch::SandyBridge),
        );
        let h = HostHeader {
            hostname: host.into(),
            arch: CpuArch::SandyBridge,
            schemas,
        };
        let mut text = Vec::new();
        codec::render_header_into(&h, &mut text);
        format!(
            "{}{t} -\nmdc scratch 5 100\n",
            String::from_utf8(text).unwrap()
        )
    }

    #[test]
    fn append_and_parse_roundtrip() {
        let a = Archive::new();
        let day = SimTime::from_secs(0);
        a.append_bytes(
            Sym::new("c1"),
            day,
            tiny_file_text("c1", 600).as_bytes(),
            &[SimTime::from_secs(600)],
            SimTime::from_secs(90_000),
        );
        assert!(a.has_file("c1", day));
        let parsed = a.parse("c1", day).unwrap().unwrap();
        assert_eq!(parsed.header.hostname, "c1");
        assert_eq!(parsed.samples.len(), 1);
        assert_eq!(a.keys().len(), 1);
        assert_eq!(a.total_samples(), 1);
    }

    #[test]
    fn latency_stats_accumulate() {
        let a = Archive::new();
        let day = SimTime::from_secs(0);
        a.append_bytes(
            Sym::new("c1"),
            day,
            b"",
            &[SimTime::from_secs(0), SimTime::from_secs(600)],
            SimTime::from_secs(3600),
        );
        let s = a.latency_stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_secs, 3600.0);
        assert_eq!(s.mean_secs, (3600.0 + 3000.0) / 2.0);
    }

    #[test]
    fn appending_samples_extends_file() {
        let a = Archive::new();
        let day = SimTime::from_secs(0);
        a.append_bytes(
            Sym::new("c1"),
            day,
            tiny_file_text("c1", 600).as_bytes(),
            &[],
            SimTime::from_secs(600),
        );
        a.append_bytes(
            Sym::new("c1"),
            day,
            b"1200 -\nmdc scratch 9 900\n",
            &[],
            SimTime::from_secs(1200),
        );
        let parsed = a.parse("c1", day).unwrap().unwrap();
        assert_eq!(parsed.samples.len(), 2);
        assert_eq!(parsed.samples[1].devices[0].values, vec![9, 900]);
    }

    #[test]
    fn append_bytes_and_with_bytes_borrow_in_place() {
        let a = Archive::new();
        let day = SimTime::from_secs(0);
        let text = tiny_file_text("c1", 600);
        a.append_bytes(
            Sym::new("c1"),
            day,
            text.as_bytes(),
            &[SimTime::from_secs(600)],
            SimTime::from_secs(700),
        );
        assert!(a.has_file("c1", day));
        let len = a.with_bytes("c1", day, |b| b.len()).unwrap();
        assert_eq!(len, text.len());
        assert!(a.with_bytes("ghost", day, |b| b.len()).is_none());
        let stored = a.with_bytes("c1", day, |b| b == text.as_bytes());
        assert_eq!(stored, Some(true));
    }

    #[test]
    fn retention_evicts_oldest_days_first() {
        let a = Archive::new();
        let day_len = 86_400u64;
        // Three days × 100 bytes each.
        for d in 0..3u64 {
            a.append_bytes(
                Sym::new("c1"),
                SimTime::from_secs(d * day_len),
                &[b'x'; 100],
                &[SimTime::from_secs(d * day_len)],
                SimTime::from_secs(d * day_len + 1),
            );
        }
        assert_eq!(a.retention_stats().stored_bytes, 300);
        a.set_retention_bytes(150);
        let s = a.retention_stats();
        assert_eq!(s.stored_bytes, 100, "two oldest days evicted");
        assert_eq!((s.evicted_files, s.evicted_bytes), (2, 200));
        assert!(!a.has_file("c1", SimTime::from_secs(0)));
        assert!(!a.has_file("c1", SimTime::from_secs(day_len)));
        assert!(a.has_file("c1", SimTime::from_secs(2 * day_len)));
        // Latency accounting survives eviction (delivery already happened).
        assert_eq!(a.total_samples(), 3);
        // Appends keep enforcing the bound.
        a.append_bytes(
            Sym::new("c2"),
            SimTime::from_secs(3 * day_len),
            &[b'y'; 120],
            &[],
            SimTime::from_secs(3 * day_len),
        );
        let s = a.retention_stats();
        assert!(s.stored_bytes <= 150);
        assert!(a.has_file("c2", SimTime::from_secs(3 * day_len)));
    }

    #[test]
    fn empty_archive_stats() {
        let a = Archive::new();
        assert_eq!(a.latency_stats(), LatencyStats::default());
        assert!(a.parse_all().unwrap().is_empty());
        assert!(a.parse("x", SimTime::from_secs(0)).is_none());
    }
}
