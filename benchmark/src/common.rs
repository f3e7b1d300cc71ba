//! Pieces every workload shares: seeded input generation, the per-tick
//! and per-query logs the end-to-end metrics are computed from, and the
//! outcome a workload hands back.

use crate::stats;
use crate::trace::Span;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use tacc_simnode::{SimDuration, SimTime};

/// Simulation epoch (start of Q4 2015, as everywhere in the repository).
pub fn t0() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

/// The paper's daemon-mode cadence.
pub fn interval() -> SimDuration {
    SimDuration::from_secs(600)
}

/// SplitMix64 finaliser over a few words: a stable hash for decisions
/// that must not consume a shared RNG stream (probe sampling, salts).
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in words {
        h = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// One traced `(unit, index)` pair in [`PROBE_ONE_IN`] is probed.
pub const PROBE_ONE_IN: u64 = 64;

/// Whether the seeded probe sample picks `(a, b)` (e.g. node, tick).
pub fn probe_hit(seed: u64, a: u64, b: u64) -> bool {
    mix(&[seed, 0x70_726f_6265, a, b]).is_multiple_of(PROBE_ONE_IN)
}

/// Seed-derived Stampede-style host names: the rack number comes from
/// the seed, so no two seeds share a fleet.
pub fn hostnames(seed: u64, n: usize) -> Vec<String> {
    let rack = 401 + (mix(&[seed, 1]) % 500) as usize;
    (0..n)
        .map(|i| format!("c{}-{:04}", rack + i / 1000, i % 1000))
        .collect()
}

/// `n` applications from the production library in proportion to its
/// weights — the *same* multiset for every seed, in an order the seed
/// shuffles. Applications differ severalfold in what a node-step and a
/// sample of them cost, so drawing them independently would make the
/// seed, not the code, the largest term in every throughput metric.
pub fn app_mix(lib: &tacc_simnode::apps::AppLibrary, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let total: f64 = lib.entries().iter().map(|(_, w)| w).sum();
    let mut picks: Vec<usize> = (0..n)
        .map(|k| {
            let mut x = (k as f64 + 0.5) / n as f64 * total;
            lib.entries()
                .iter()
                .position(|(_, w)| {
                    x -= w;
                    x <= 0.0
                })
                .unwrap_or(lib.entries().len() - 1)
        })
        .collect();
    shuffle(&mut picks, rng);
    picks
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Ranges cutting `len` items into runs of `chunk` consecutive items; a
/// trailing partial run is folded into the last full one (so no chunk
/// is shorter than `chunk` unless it is the only one).
fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    let n = (len / chunk).max(1);
    (0..n)
        .map(|c| c * chunk..if c + 1 == n { len } else { (c + 1) * chunk })
        .collect()
}

fn sorted_scaled(ns: &[u64], per: f64) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&ns| ns as f64 / per).collect();
    stats::sort(&mut v);
    v
}

/// The two-level statistics of a log of wall times, shared by
/// [`TickLog`] and [`QueryLog`].
///
/// On the shared hosts this runs on, interference is one-sided and comes
/// in stretches of seconds: a pure-ALU calibration loop run between
/// ticks stays within 3 % while the ticks around it slow by 20–40 %. A
/// statistic over the whole window reports how busy the neighbours were.
/// So each is taken *within* chunks of consecutive entries, and across
/// chunks the value an eighth of the way in from the undisturbed side is
/// reported ([`stats::undisturbed`]); a tail percentile, which needs more
/// entries than a chunk has, is taken over the pooled better half of the
/// chunks (ranked by their medians). What recurs in every chunk still
/// shows; what happens in one chunk in ten does not.
///
/// That presumes chunks that would cost the same on a quiet host. Where
/// they would not — the log is `drifting`: `fleet_hostile`'s ticks are
/// cheaper until the spools fill, `system_live`'s queries dearer as its
/// jobs table grows — the undisturbed chunk would simply be the cheapest
/// phase, so the median across chunks is reported instead, and tails are
/// taken over the whole log.
struct Chunked<'a> {
    ns: &'a [u64],
    chunks: Vec<std::ops::Range<usize>>,
    drifting: bool,
}

impl Chunked<'_> {
    fn across(&self, per_chunk: &[f64]) -> f64 {
        if self.drifting {
            stats::median(per_chunk)
        } else {
            stats::undisturbed(per_chunk, stats::Better::Lower)
        }
    }

    /// Mean of each chunk, then across chunks, in ns.
    fn mean_ns(&self) -> f64 {
        let means: Vec<f64> = self
            .chunks
            .iter()
            .map(|r| self.ns[r.clone()].iter().sum::<u64>() as f64 / r.len().max(1) as f64)
            .collect();
        self.across(&means)
    }

    /// Median of each chunk, then across chunks, in units of `per` ns.
    fn median(&self, per: f64) -> f64 {
        let medians: Vec<f64> = self
            .chunks
            .iter()
            .map(|r| stats::median_sorted(&sorted_scaled(&self.ns[r.clone()], per)))
            .collect();
        self.across(&medians)
    }

    /// Percentile `p` over the pooled better half of the chunks (the
    /// whole log when drifting).
    fn tail(&self, p: f64, per: f64) -> Result<f64, stats::TooFew> {
        if self.drifting {
            return stats::percentile(&sorted_scaled(self.ns, per), p);
        }
        let mut ranked: Vec<(f64, &std::ops::Range<usize>)> = self
            .chunks
            .iter()
            .map(|r| {
                (
                    stats::median_sorted(&sorted_scaled(&self.ns[r.clone()], per)),
                    r,
                )
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ranked.len().div_ceil(2);
        let pool: Vec<u64> = ranked
            .iter()
            .take(keep)
            .flat_map(|(_, r)| self.ns[(*r).clone()].iter().copied())
            .collect();
        stats::percentile(&sorted_scaled(&pool, per), p)
    }
}

/// Wall time and work of every tick of a measured window. Statistics
/// are two-level (see [`Chunked`]).
#[derive(Clone, Debug, Default)]
pub struct TickLog {
    /// Wall nanoseconds per tick.
    pub wall_ns: Vec<u64>,
    /// Samples that became queryable in each tick.
    pub samples: Vec<u32>,
    /// The chunks are not comparable (see [`Chunked`]).
    pub drifting: bool,
}

impl TickLog {
    /// With room for `n` ticks.
    pub fn with_capacity(n: usize) -> TickLog {
        TickLog {
            wall_ns: Vec::with_capacity(n),
            samples: Vec::with_capacity(n),
            drifting: false,
        }
    }

    /// Record one tick.
    pub fn push(&mut self, wall_ns: u64, samples: u32) {
        self.wall_ns.push(wall_ns);
        self.samples.push(samples);
    }

    /// Sum of tick walls.
    pub fn total_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Samples over all ticks.
    pub fn total_samples(&self) -> u64 {
        self.samples.iter().map(|&s| u64::from(s)).sum()
    }

    fn chunked(&self, chunk: usize) -> Chunked<'_> {
        Chunked {
            ns: &self.wall_ns,
            chunks: chunk_ranges(self.wall_ns.len(), chunk),
            drifting: self.drifting,
        }
    }

    /// Samples per second: the window's samples per tick over the
    /// undisturbed mean tick time (so a workload whose samples arrive in
    /// bursts is not judged by which chunk the bursts fell in).
    pub fn samples_per_s(&self, chunk: usize) -> f64 {
        let per_tick = self.total_samples() as f64 / self.wall_ns.len().max(1) as f64;
        let tick_ns = self.chunked(chunk).mean_ns();
        if tick_ns > 0.0 {
            per_tick * 1e9 / tick_ns
        } else {
            0.0
        }
    }

    /// Median tick wall in ms.
    pub fn p50_ms(&self, chunk: usize) -> f64 {
        self.chunked(chunk).median(1e6)
    }

    /// p95 tick wall in ms.
    pub fn p95_ms(&self, chunk: usize) -> Result<f64, stats::TooFew> {
        self.chunked(chunk).tail(0.95, 1e6)
    }

    /// Slowest tick in ms.
    pub fn max_ms(&self) -> f64 {
        self.wall_ns.iter().max().map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

/// Chunks the query log is cut into.
pub const QUERY_CHUNKS: usize = 32;

/// Wall time of every query operation of a run. Statistics are
/// two-level (see [`Chunked`]).
#[derive(Clone, Debug, Default)]
pub struct QueryLog {
    /// Wall nanoseconds per operation.
    pub ns: Vec<u64>,
    /// Wall nanoseconds per call, where an operation is several calls
    /// (`system_live`'s visits) and so too few for a p99; the tail is
    /// then read off these. Empty otherwise.
    pub calls_ns: Vec<u64>,
    /// The chunks are not comparable (see [`Chunked`]).
    pub drifting: bool,
}

impl QueryLog {
    /// With room for `n` operations.
    pub fn with_capacity(n: usize) -> QueryLog {
        QueryLog {
            ns: Vec::with_capacity(n),
            calls_ns: Vec::new(),
            drifting: false,
        }
    }

    fn chunked_over<'a>(&self, ns: &'a [u64]) -> Chunked<'a> {
        Chunked {
            ns,
            chunks: chunk_ranges(ns.len(), ns.len().div_ceil(QUERY_CHUNKS)),
            drifting: self.drifting,
        }
    }

    fn chunked(&self) -> Chunked<'_> {
        self.chunked_over(&self.ns)
    }

    /// Operations per second of time spent in them.
    pub fn per_s(&self) -> f64 {
        let op_ns = self.chunked().mean_ns();
        if op_ns > 0.0 {
            1e9 / op_ns
        } else {
            0.0
        }
    }

    /// Median operation wall in µs.
    pub fn p50_us(&self) -> f64 {
        self.chunked().median(1e3)
    }

    /// p99 operation (or call, see `calls_ns`) wall in µs.
    pub fn p99_us(&self) -> Result<f64, stats::TooFew> {
        let ns = if self.calls_ns.is_empty() {
            &self.ns
        } else {
            &self.calls_ns
        };
        self.chunked_over(ns).tail(0.99, 1e3)
    }

    /// The slowest operation (or call) in µs.
    pub fn max_us(&self) -> f64 {
        let ns = self.ns.iter().chain(&self.calls_ns).max();
        ns.map_or(0.0, |&ns| ns as f64 / 1e3)
    }
}

/// What one workload run hands back to the command.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: samples collected + queries issued.
    pub attempted: u64,
    /// Operations that failed: answers that differ from the harness
    /// reference, unparseable samples, violated identities.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub violations: Vec<String>,
    /// Samples collected by the daemons (the denominator of
    /// `delivered_share`).
    pub collected: u64,
    /// Samples queryable in the tsdb at the end of the run.
    pub queryable: u64,
    /// Per-tick log of the measured window.
    pub ticks: TickLog,
    /// Ticks per chunk for the tick statistics (see [`TickLog`]).
    pub tick_chunk: usize,
    /// Per-operation log of the query leg.
    pub queries: QueryLog,
    /// Wall nanoseconds of the measured window.
    pub window_ns: u64,
    /// Per-layer values gathered from public counters (always) and from
    /// spans (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Every span of the traced window (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a failed check.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    /// Record a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }
}

/// FNV-1a, for order-sensitive checksums of query answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn push(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a byte string in.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_statistics_ignore_one_slow_stretch() {
        let mut log = TickLog::default();
        for i in 0..400 {
            // Ticks 160..200 are ten times slower (a descheduled stretch).
            let wall = if (160..200).contains(&i) {
                10_000_000
            } else {
                1_000_000
            };
            log.push(wall, 100);
        }
        // 100 samples per 1 ms tick = 100k samples/s in 9 of 10 chunks.
        assert!((log.samples_per_s(40) - 100_000.0).abs() < 1e-6);
        assert_eq!(log.total_samples(), 40_000);
        assert!((log.p50_ms(40) - 1.0).abs() < 1e-12);
        // The tail is over the better half of the chunks, which the slow
        // stretch (one chunk in ten) is not in.
        assert_eq!(log.p95_ms(40), Ok(1.0));
        // One chunk holding everything is the plain statistic.
        assert_eq!(log.p50_ms(400), 1.0);
        assert_eq!(log.p95_ms(400), Ok(10.0));
        assert!((log.samples_per_s(400) - 400.0 * 100.0 / 0.76).abs() < 1e-6);
    }

    #[test]
    fn seeds_change_inputs_and_repeat() {
        assert_eq!(hostnames(42, 3), hostnames(42, 3));
        assert_ne!(hostnames(42, 3), hostnames(2015, 3));
        let hits = (0..6400).filter(|&i| probe_hit(42, i % 64, i / 64)).count();
        assert!(
            (60..=140).contains(&hits),
            "1-in-64 probe picked {hits} of 6400"
        );
    }
}
