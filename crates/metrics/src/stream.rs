//! Incremental (streaming) flag evaluation.
//!
//! The paper names "automated real-time analysis" as future work; this
//! module is the metrics half of that loop. Each [`crate::Flag`]
//! predicate from [`crate::FlagRules`] is split into an incremental
//! form: a [`FlagStream`] holds the latest value of every Table-I
//! metric it has seen for one job plus a presence bitmask, and keeps a
//! per-predicate *tripped* bitmask up to date as values arrive. A
//! metric update recomputes only the predicate slot(s) that metric
//! feeds — O(1) work, no allocation — so the stream can run inside the
//! consumer drain path on every sample.
//!
//! **Equivalence with the batch path.** [`FlagRules::evaluate`] is a
//! thin wrapper over this module: it builds a fresh `FlagStream`,
//! replays the finished [`JobMetrics`] through [`FlagStream::update`],
//! and reads [`FlagStream::flags`]. Mid-job verdicts are *estimates*
//! (built from online rate estimates); the job-end verdict is made
//! exact by [`FlagStream::finish`], which resets the presence state and
//! replays the batch `JobMetrics` through the very same update path the
//! wrapper uses — so streamed-at-job-end equals batch by construction.
//! A proptest (`tests/stream_props.rs`) checks both directions.
//!
//! Per-job streams are keyed by interned job ids ([`Sym`]) in
//! [`FlagStreams`]; finished jobs are removed, bounding memory by the
//! number of *live* jobs.

use crate::flags::{Flag, FlagContext, FlagRules};
use crate::table1::{JobMetrics, MetricId, TrendDirection};
use std::collections::HashMap;
use tacc_simnode::intern::Sym;

// The dense `values` array and the `present` bitmask are indexed by
// `MetricId` discriminant; table1 const-asserts `ALL[i] as usize == i`,
// and this guards the bitmask width (fails to compile if COUNT > 32;
// spelled without `assert!` so the panic lint stays macro-free here).
const _: [(); 1] = [(); (MetricId::COUNT <= 32) as usize];

/// A set of [`Flag`]s packed into one byte, one bit per variant.
///
/// Iteration order is `Flag` declaration order, which matches the
/// emission order of [`FlagRules::evaluate`] (the catastrophe rule
/// emits exactly one of `SuddenDrop`/`SuddenRise`, so the two adjacent
/// variants never reorder relative to each other).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FlagSet {
    bits: u8,
}

impl FlagSet {
    /// The empty set.
    pub const EMPTY: FlagSet = FlagSet { bits: 0 };

    /// This set plus `flag`.
    #[must_use]
    pub fn with(self, flag: Flag) -> FlagSet {
        FlagSet {
            bits: self.bits | 1 << flag as u8,
        }
    }

    /// Does the set contain `flag`?
    pub fn contains(self, flag: Flag) -> bool {
        self.bits & 1 << flag as u8 != 0
    }

    /// Number of flags set.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Flags in `self` that are not in `prev` (newly tripped).
    #[must_use]
    pub fn added_since(self, prev: FlagSet) -> FlagSet {
        FlagSet {
            bits: self.bits & !prev.bits,
        }
    }

    /// Iterate the flags in declaration (== batch emission) order.
    pub fn iter(self) -> FlagIter {
        FlagIter {
            bits: self.bits,
            idx: 0,
        }
    }
}

impl FromIterator<Flag> for FlagSet {
    fn from_iter<I: IntoIterator<Item = Flag>>(iter: I) -> FlagSet {
        let mut set = FlagSet::EMPTY;
        for f in iter {
            set = set.with(f);
        }
        set
    }
}

impl IntoIterator for FlagSet {
    type Item = Flag;
    type IntoIter = FlagIter;
    fn into_iter(self) -> FlagIter {
        self.iter()
    }
}

/// Iterator over a [`FlagSet`] in declaration order.
pub struct FlagIter {
    bits: u8,
    idx: usize,
}

impl Iterator for FlagIter {
    type Item = Flag;
    fn next(&mut self) -> Option<Flag> {
        while let Some(f) = Flag::ALL.get(self.idx).copied() {
            self.idx += 1;
            if self.bits & 1 << f as u8 != 0 {
                return Some(f);
            }
        }
        None
    }
}

// One bit per predicate *slot*. The catastrophe slot resolves to
// `SuddenRise`/`SuddenDrop` at read time from the stream's trend, so
// seven slots cover all eight flags.
const SLOT_MD: u8 = 1 << 0;
const SLOT_GIGE: u8 = 1 << 1;
const SLOT_LARGEMEM: u8 = 1 << 2;
const SLOT_IDLE: u8 = 1 << 3;
const SLOT_CATASTROPHE: u8 = 1 << 4;
const SLOT_CPI: u8 = 1 << 5;
const SLOT_VEC: u8 = 1 << 6;

/// Which predicate slot (if any) a metric feeds.
fn slot_of(id: MetricId) -> u8 {
    match id {
        MetricId::MetaDataRate => SLOT_MD,
        MetricId::GigEBW => SLOT_GIGE,
        MetricId::MemUsage => SLOT_LARGEMEM,
        MetricId::Idle => SLOT_IDLE,
        MetricId::Catastrophe => SLOT_CATASTROPHE,
        MetricId::Cpi => SLOT_CPI,
        MetricId::VecPercent => SLOT_VEC,
        _ => 0,
    }
}

/// Incremental flag state for one job.
///
/// `update` is the hot path: store the value, set the presence bit,
/// recompute the single predicate slot the metric feeds. 0 allocs/op
/// (the struct is flat; no heap is touched after construction).
#[derive(Clone, Copy)]
pub struct FlagStream {
    rules: FlagRules,
    largemem: bool,
    node_memory_gb: f64,
    values: [f64; MetricId::COUNT],
    present: u32,
    trend: Option<TrendDirection>,
    tripped: u8,
}

impl FlagStream {
    /// New stream with no metrics seen, outside the largemem queue.
    pub fn new(rules: FlagRules) -> FlagStream {
        FlagStream {
            rules,
            largemem: false,
            node_memory_gb: 0.0,
            values: [0.0; MetricId::COUNT],
            present: 0,
            trend: None,
            tripped: 0,
        }
    }

    /// New stream with job context applied.
    pub fn with_context(rules: FlagRules, ctx: &FlagContext) -> FlagStream {
        let mut s = FlagStream::new(rules);
        s.set_context(ctx.queue_name == "largemem", ctx.node_memory_gb);
        s
    }

    /// Set the job context the largemem rule needs. Recomputes that
    /// slot, so context may arrive before or after memory samples.
    fn set_context(&mut self, largemem: bool, node_memory_gb: f64) {
        self.largemem = largemem;
        self.node_memory_gb = node_memory_gb;
        self.recompute(SLOT_LARGEMEM);
    }

    /// Set the job's performance trend (resolves the catastrophe slot
    /// into `SuddenRise` vs `SuddenDrop`).
    fn set_trend(&mut self, trend: Option<TrendDirection>) {
        self.trend = trend;
    }

    /// Feed one metric value. Non-finite values are ignored, matching
    /// [`JobMetrics::set`]. Only the predicate slot fed by `id` is
    /// recomputed.
    pub fn update(&mut self, id: MetricId, v: f64) {
        if !v.is_finite() {
            return;
        }
        let i = id as usize;
        if let Some(cell) = self.values.get_mut(i) {
            *cell = v;
        }
        self.present |= 1 << i;
        let slot = slot_of(id);
        if slot != 0 {
            self.recompute(slot);
        }
    }

    /// Latest value for `id`, if one has been fed.
    pub fn value(&self, id: MetricId) -> Option<f64> {
        let i = id as usize;
        if self.present & 1 << i != 0 {
            self.values.get(i).copied()
        } else {
            None
        }
    }

    /// Re-evaluate one predicate slot from the stored values.
    fn recompute(&mut self, slot: u8) {
        let r = &self.rules;
        let on = match slot {
            SLOT_MD => self
                .value(MetricId::MetaDataRate)
                .is_some_and(|v| v > r.metadata_rate),
            SLOT_GIGE => self
                .value(MetricId::GigEBW)
                .is_some_and(|v| v > r.gige_bw_mbs),
            SLOT_LARGEMEM => {
                self.largemem
                    && self
                        .value(MetricId::MemUsage)
                        .is_some_and(|m| m < r.largemem_min_frac * self.node_memory_gb)
            }
            SLOT_IDLE => self.value(MetricId::Idle).is_some_and(|v| v < r.idle_ratio),
            SLOT_CATASTROPHE => self
                .value(MetricId::Catastrophe)
                .is_some_and(|v| v < r.catastrophe_ratio),
            SLOT_CPI => self.value(MetricId::Cpi).is_some_and(|v| v > r.high_cpi),
            SLOT_VEC => self
                .value(MetricId::VecPercent)
                .is_some_and(|v| v < r.low_vec_percent),
            _ => false,
        };
        if on {
            self.tripped |= slot;
        } else {
            self.tripped &= !slot;
        }
    }

    /// Current verdict. Mid-job this is an estimate over the values fed
    /// so far; after [`FlagStream::finish`] it is exactly the batch
    /// verdict.
    pub fn flags(&self) -> FlagSet {
        let mut set = FlagSet::EMPTY;
        if self.tripped & SLOT_MD != 0 {
            set = set.with(Flag::HighMetadataRate);
        }
        if self.tripped & SLOT_GIGE != 0 {
            set = set.with(Flag::HighGigE);
        }
        if self.tripped & SLOT_LARGEMEM != 0 {
            set = set.with(Flag::LargememWaste);
        }
        if self.tripped & SLOT_IDLE != 0 {
            set = set.with(Flag::IdleNodes);
        }
        if self.tripped & SLOT_CATASTROPHE != 0 {
            // §V-A distinguishes the two signatures by where the weak
            // window sits relative to the strong one.
            set = set.with(match self.trend {
                Some(TrendDirection::Rise) => Flag::SuddenRise,
                _ => Flag::SuddenDrop,
            });
        }
        if self.tripped & SLOT_CPI != 0 {
            set = set.with(Flag::HighCpi);
        }
        if self.tripped & SLOT_VEC != 0 {
            set = set.with(Flag::LowVectorization);
        }
        set
    }

    /// Replay every entry of a [`JobMetrics`] (and its trend) through
    /// the update path.
    pub fn apply(&mut self, m: &JobMetrics) {
        for (id, v) in m.iter() {
            self.update(id, v);
        }
        self.set_trend(m.trend);
    }

    /// Job-end close-out: discard all mid-job estimates, replay the
    /// batch metrics, and return the (now exact) verdict. Resetting
    /// presence first guarantees a stale estimate for a metric absent
    /// from `m` can never leak into the final verdict — this is what
    /// makes the streamed job-end verdict provably equal to
    /// [`FlagRules::evaluate`].
    pub fn finish(&mut self, m: &JobMetrics) -> FlagSet {
        self.present = 0;
        self.tripped = 0;
        self.trend = None;
        self.apply(m);
        self.flags()
    }
}

/// Per-job streaming flag state, keyed by interned job id.
pub struct FlagStreams {
    rules: FlagRules,
    jobs: HashMap<Sym, FlagStream>,
}

impl FlagStreams {
    /// New registry evaluating `rules`.
    // alloc: cold-fn (constructed once per analyzer)
    pub fn new(rules: FlagRules) -> FlagStreams {
        FlagStreams {
            rules,
            jobs: HashMap::new(),
        }
    }

    /// Number of live (unfinished) job streams.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Any live streams?
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn entry(&mut self, job: Sym) -> &mut FlagStream {
        let rules = self.rules;
        self.jobs
            .entry(job)
            .or_insert_with(|| FlagStream::new(rules))
    }

    /// Feed one metric estimate for a job; returns the updated verdict.
    /// Steady-state (existing job) this is 0 allocs/op.
    pub fn update(&mut self, job: Sym, id: MetricId, v: f64) -> FlagSet {
        let s = self.entry(job);
        s.update(id, v);
        s.flags()
    }

    /// Current (estimated) verdict for a job; empty if unseen.
    pub fn flags(&self, job: Sym) -> FlagSet {
        self.jobs
            .get(&job)
            .map(FlagStream::flags)
            .unwrap_or_default()
    }

    /// Close out a job: replay its batch metrics under `ctx` and drop
    /// the stream. The result equals `rules.evaluate(ctx, m)`.
    pub fn finish(&mut self, job: Sym, ctx: &FlagContext, m: &JobMetrics) -> FlagSet {
        let mut s = self.jobs.remove(&job).unwrap_or_else(|| {
            let rules = self.rules;
            FlagStream::new(rules)
        });
        s.set_context(ctx.queue_name == "largemem", ctx.node_memory_gb);
        s.finish(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(queue: &str) -> FlagContext {
        FlagContext {
            queue_name: queue.to_string(),
            node_memory_gb: 34.36,
        }
    }

    #[test]
    fn flag_set_iterates_in_declaration_order() {
        let set = FlagSet::EMPTY
            .with(Flag::LowVectorization)
            .with(Flag::HighMetadataRate)
            .with(Flag::SuddenDrop);
        let flags: Vec<Flag> = set.iter().collect();
        assert_eq!(
            flags,
            vec![
                Flag::HighMetadataRate,
                Flag::SuddenDrop,
                Flag::LowVectorization
            ]
        );
        assert_eq!(set.len(), 3);
        assert!(set.contains(Flag::SuddenDrop));
        assert!(!set.contains(Flag::HighGigE));
    }

    #[test]
    fn added_since_reports_only_new_flags() {
        let prev = FlagSet::EMPTY.with(Flag::HighGigE);
        let now = prev.with(Flag::HighCpi);
        let added: Vec<Flag> = now.added_since(prev).iter().collect();
        assert_eq!(added, vec![Flag::HighCpi]);
        assert!(prev.added_since(now).is_empty());
    }

    #[test]
    fn incremental_updates_trip_and_untrip() {
        let mut s = FlagStream::new(FlagRules::default());
        assert!(s.flags().is_empty());
        s.update(MetricId::MetaDataRate, 50_000.0);
        assert!(s.flags().contains(Flag::HighMetadataRate));
        // Rate estimate falls back under the threshold: flag clears.
        s.update(MetricId::MetaDataRate, 100.0);
        assert!(!s.flags().contains(Flag::HighMetadataRate));
    }

    #[test]
    fn largemem_slot_reacts_to_context_changes() {
        let mut s = FlagStream::new(FlagRules::default());
        s.update(MetricId::MemUsage, 2.0);
        assert!(!s.flags().contains(Flag::LargememWaste));
        s.set_context(true, 1100.0);
        assert!(s.flags().contains(Flag::LargememWaste));
        s.set_context(false, 34.36);
        assert!(!s.flags().contains(Flag::LargememWaste));
    }

    #[test]
    fn trend_resolves_catastrophe_slot() {
        let mut s = FlagStream::new(FlagRules::default());
        s.update(MetricId::Catastrophe, 0.01);
        assert!(s.flags().contains(Flag::SuddenDrop));
        s.set_trend(Some(TrendDirection::Rise));
        assert!(s.flags().contains(Flag::SuddenRise));
        assert!(!s.flags().contains(Flag::SuddenDrop));
    }

    #[test]
    fn finish_discards_stale_estimates() {
        let mut s = FlagStream::new(FlagRules::default());
        // Mid-job estimate trips the idle rule...
        s.update(MetricId::Idle, 0.001);
        assert!(s.flags().contains(Flag::IdleNodes));
        // ...but the finished job has no Idle metric at all: the batch
        // verdict must not inherit the estimate.
        let m = JobMetrics::new();
        assert!(s.finish(&m).is_empty());
    }

    #[test]
    fn streams_registry_round_trip() {
        let mut reg = FlagStreams::new(FlagRules::default());
        let job = Sym::new("job-42");
        assert!(reg.flags(job).is_empty());
        let set = reg.update(job, MetricId::GigEBW, 45.0);
        assert!(set.contains(Flag::HighGigE));
        assert_eq!(reg.len(), 1);

        let mut m = JobMetrics::new();
        m.set(MetricId::GigEBW, 45.0);
        let final_set = reg.finish(job, &ctx("normal"), &m);
        assert!(final_set.contains(Flag::HighGigE));
        assert!(reg.is_empty());
    }
}
