//! Memory governance: a shared byte budget with soft/hard thresholds,
//! and the TTL+LRU cache policy it drives.
//!
//! The soak tier (DESIGN.md §17) keeps the pipeline's decoded-state
//! caches — the tsdb per-shard decoded-block cache and the portal
//! query cache — under one fixed budget while the fleet never stops.
//! Two pieces implement that:
//!
//! * [`MemoryBudget`] — an atomic tracked-bytes ledger with a **soft**
//!   threshold (advisory pressure: holders should shrink) and a
//!   **hard** threshold (a ceiling that is never crossed:
//!   [`MemoryBudget::try_grant`] refuses the grant instead). Several
//!   caches share one budget through an `Arc`, so pressure created by
//!   one cache sheds entries from all of them.
//! * [`TtlLru`] — the shared eviction policy: entries expire after a
//!   TTL on a caller-advanced logical clock (simulation time in this
//!   codebase — deterministic, no wall-clock reads), are evicted
//!   least-recently-used at capacity, and are evicted under budget
//!   pressure (evict-to-fit before a grant, shrink-while-soft after
//!   an insert). Every fate has its own counter in
//!   [`CacheCounters`], so conservation-style accounting over cache
//!   traffic (`hits + misses == lookups`, inserted == live + evicted
//!   + expired + …) stays exact.
//!
//! This module lives at the bottom of the dependency graph (like
//! [`crate::pool`] and [`crate::intern`]) so the tsdb, the broker, and
//! the portal can all share it. It is on the `cargo xtask lint` panic
//! deny tier: no panicking constructs, no unchecked indexing.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Budget occupancy classification, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pressure {
    /// Tracked bytes at or below the soft threshold.
    Ok,
    /// Above soft, at or below hard: holders should shrink.
    Soft,
    /// At the hard ceiling (grants are being refused).
    Hard,
}

/// A shared tracked-bytes budget with soft/hard thresholds.
///
/// The ledger counts *tracked* bytes — what the governed caches say
/// they hold — not process RSS. Grants are refused rather than allowed
/// past the hard threshold, so `peak() <= hard_limit()` holds by
/// construction; the soak (`tests/soak.rs`) asserts exactly that.
#[derive(Debug)]
pub struct MemoryBudget {
    soft: u64,
    hard: u64,
    used: AtomicU64,
    peak: AtomicU64,
    /// Grants that first crossed the soft threshold.
    soft_events: AtomicU64,
    /// Grants refused because they would cross the hard threshold.
    hard_events: AtomicU64,
}

impl MemoryBudget {
    /// A budget with the given soft and hard thresholds in bytes
    /// (`hard` is clamped up to at least `soft`).
    pub fn new(soft: u64, hard: u64) -> MemoryBudget {
        MemoryBudget {
            soft,
            hard: hard.max(soft),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            soft_events: AtomicU64::new(0),
            hard_events: AtomicU64::new(0),
        }
    }

    /// A budget that never refuses or pressures (both thresholds at
    /// `u64::MAX`).
    pub fn unbounded() -> MemoryBudget {
        MemoryBudget::new(u64::MAX, u64::MAX)
    }

    /// Try to account `bytes` against the budget. On success the bytes
    /// are tracked and the occupancy *after* the grant is returned; a
    /// grant that would push usage past the hard threshold is refused
    /// (`Err`), leaves the ledger untouched, and counts a hard event.
    pub fn try_grant(&self, bytes: u64) -> Result<Pressure, Pressure> {
        let granted = self
            .used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |u| {
                u.checked_add(bytes).filter(|&n| n <= self.hard)
            });
        match granted {
            Ok(old) => {
                let new = old.saturating_add(bytes);
                self.peak.fetch_max(new, Ordering::AcqRel);
                if new > self.soft {
                    if old <= self.soft {
                        self.soft_events.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Pressure::Soft)
                } else {
                    Ok(Pressure::Ok)
                }
            }
            Err(_) => {
                self.hard_events.fetch_add(1, Ordering::Relaxed);
                Err(Pressure::Hard)
            }
        }
    }

    /// Return `bytes` to the budget (saturating: releasing more than
    /// is tracked clamps to zero rather than wrapping).
    pub fn release(&self, bytes: u64) {
        let _ = self
            .used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |u| {
                Some(u.saturating_sub(bytes))
            });
    }

    /// Current occupancy classification.
    pub fn pressure(&self) -> Pressure {
        let used = self.used.load(Ordering::Acquire);
        if used >= self.hard && self.hard < u64::MAX {
            Pressure::Hard
        } else if used > self.soft {
            Pressure::Soft
        } else {
            Pressure::Ok
        }
    }

    /// Tracked bytes right now.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Acquire)
    }

    /// The hard threshold in bytes.
    pub fn hard_limit(&self) -> u64 {
        self.hard
    }

    /// Times a grant first pushed usage above the soft threshold.
    pub fn soft_events(&self) -> u64 {
        self.soft_events.load(Ordering::Relaxed)
    }

    /// Times a grant was refused at the hard threshold.
    pub fn hard_events(&self) -> u64 {
        self.hard_events.load(Ordering::Relaxed)
    }
}

/// Sizing and freshness knobs for a [`TtlLru`].
#[derive(Clone, Copy, Debug)]
pub struct TtlLruConfig {
    /// Maximum live entries; the least-recently-used entry is evicted
    /// beyond this. Clamped to at least 1.
    pub capacity: usize,
    /// Maximum age in logical-clock units ([`TtlLru::advance`]) before
    /// an entry is dropped even if still under capacity.
    pub ttl: u64,
}

impl Default for TtlLruConfig {
    fn default() -> TtlLruConfig {
        TtlLruConfig {
            capacity: 64,
            ttl: u64::MAX,
        }
    }
}

/// Per-cache traffic and eviction counters. Every removal is counted
/// under exactly one fate, so cache accounting reconciles exactly:
/// `inserted == live + evicted_lru + expired + evicted_pressure +
/// replaced + removed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that found nothing live.
    pub misses: u64,
    /// Entries accepted into the cache.
    pub inserted: u64,
    /// Entries dropped to enforce `capacity`.
    pub evicted_lru: u64,
    /// Entries dropped because they outlived the TTL.
    pub expired: u64,
    /// Entries dropped to relieve budget pressure (evict-to-fit or
    /// shrink-while-soft).
    pub evicted_pressure: u64,
    /// Entries displaced by a newer value under the same key.
    pub replaced: u64,
    /// Entries explicitly removed or cleared by the caller.
    pub removed: u64,
    /// Inserts refused because the value could not fit under the hard
    /// threshold even with the cache emptied.
    pub rejected: u64,
}

impl CacheCounters {
    /// Fold another cache's counters into this one (for
    /// `durability_stats`-style aggregation across shards).
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserted += other.inserted;
        self.evicted_lru += other.evicted_lru;
        self.expired += other.expired;
        self.evicted_pressure += other.evicted_pressure;
        self.replaced += other.replaced;
        self.removed += other.removed;
        self.rejected += other.rejected;
    }

    /// Entries dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.evicted_lru + self.expired + self.evicted_pressure + self.replaced + self.removed
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Caller-declared size of the entry in bytes.
    cost: u64,
    /// LRU clock value at last touch.
    last_used: u64,
    /// TTL clock value at insert.
    stored_at: u64,
}

/// The shared TTL+LRU cache policy (see module docs).
///
/// Not internally synchronised: callers wrap it in whatever lock their
/// layer already holds (the tsdb keeps one behind each shard's cache
/// mutex). The TTL clock only moves through [`TtlLru::advance`] —
/// simulation time in this codebase — so expiry is deterministic.
#[derive(Debug)]
pub struct TtlLru<K, V> {
    cfg: TtlLruConfig,
    map: HashMap<K, Slot<V>>,
    /// LRU clock: bumped on every lookup/insert.
    tick: u64,
    /// TTL clock: advanced by the caller, monotonic.
    now: u64,
    /// Sum of live entry costs.
    bytes: u64,
    budget: Option<Arc<MemoryBudget>>,
    counters: CacheCounters,
}

impl<K: Eq + Hash + Clone, V> TtlLru<K, V> {
    /// An empty cache with the given policy and no budget.
    pub fn new(cfg: TtlLruConfig) -> TtlLru<K, V> {
        TtlLru {
            cfg: TtlLruConfig {
                capacity: cfg.capacity.max(1),
                ttl: cfg.ttl,
            },
            // alloc: cold (constructor; one empty map per cache)
            map: HashMap::new(),
            tick: 0,
            now: 0,
            bytes: 0,
            budget: None,
            counters: CacheCounters::default(),
        }
    }

    /// Attach a shared budget; entry costs are granted against it and
    /// released as entries drop. Pressure-driven eviction only happens
    /// with a budget attached.
    ///
    /// Entries the cache already holds are charged to the new budget
    /// (and released from any previous one), so every cost released on
    /// a drop was granted first and sibling caches on the budget are
    /// never under-counted. If the carried bytes alone would cross the
    /// hard threshold, every entry is dropped instead, counted as
    /// `evicted_pressure`.
    pub fn set_budget(&mut self, budget: Arc<MemoryBudget>) {
        if let Some(old) = &self.budget {
            old.release(self.bytes);
        }
        if budget.try_grant(self.bytes).is_err() {
            self.counters.evicted_pressure += self.map.len() as u64;
            self.map.clear();
            self.bytes = 0;
        }
        self.budget = Some(budget);
    }

    /// Replace the policy, dropping every live entry (counted as
    /// `removed`): changing capacity/TTL mid-flight would otherwise
    /// leave entries that never obeyed the new policy.
    pub fn set_policy(&mut self, cfg: TtlLruConfig) {
        self.clear();
        self.cfg = TtlLruConfig {
            capacity: cfg.capacity.max(1),
            ttl: cfg.ttl,
        };
    }

    /// The active policy.
    pub fn policy(&self) -> TtlLruConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of live entry costs in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Advance the TTL clock to `now` (monotonic: an older `now` is
    /// ignored) and sweep entries that have outlived the TTL, so cold
    /// expired entries release their budget bytes without waiting to
    /// be looked up.
    pub fn advance(&mut self, now: u64) {
        if now <= self.now {
            return;
        }
        self.now = now;
        let ttl = self.cfg.ttl;
        if ttl == u64::MAX {
            return;
        }
        let (mut freed, mut expired) = (0u64, 0u64);
        self.map.retain(|_, s| {
            let live = now.saturating_sub(s.stored_at) <= ttl;
            if !live {
                freed += s.cost;
                expired += 1;
            }
            live
        });
        self.bytes = self.bytes.saturating_sub(freed);
        if let Some(b) = &self.budget {
            b.release(freed);
        }
        self.counters.expired += expired;
    }

    /// Look up `key`: a present entry is a hit (its LRU stamp is
    /// refreshed). Every entry is within the TTL — [`TtlLru::advance`],
    /// the only thing that moves the clock, sweeps the rest — so there
    /// is no expiry check here.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(s) => {
                s.last_used = self.tick;
                self.counters.hits += 1;
                Some(&s.value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key` with a declared size of `cost`
    /// bytes. Enforces, in order: replacement of an existing entry
    /// under the same key, LRU eviction at capacity, evict-to-fit
    /// against the budget's hard threshold, and shrink-while-soft
    /// after the insert. Returns `false` when the entry could not be
    /// cached (it would breach the hard threshold even with the cache
    /// emptied — counted as `rejected`).
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> bool {
        if self.take(&key).is_some() {
            self.counters.replaced += 1;
        }
        while self.map.len() >= self.cfg.capacity {
            if !self.evict_lru() {
                break;
            }
            self.counters.evicted_lru += 1;
        }
        if let Some(budget) = &self.budget {
            let budget = Arc::clone(budget);
            // Evict-to-fit: make room below the hard threshold by
            // shedding our own LRU entries; an empty cache that still
            // cannot fit the value refuses to cache it.
            loop {
                match budget.try_grant(cost) {
                    Ok(_) => break,
                    Err(_) => {
                        if !self.evict_lru() {
                            self.counters.rejected += 1;
                            return false;
                        }
                        self.counters.evicted_pressure += 1;
                    }
                }
            }
        }
        self.tick += 1;
        self.bytes = self.bytes.saturating_add(cost);
        self.counters.inserted += 1;
        self.map.insert(
            key,
            Slot {
                value,
                cost,
                last_used: self.tick,
                stored_at: self.now,
            },
        );
        // Shrink-while-soft: global pressure (possibly created by a
        // sibling cache on the same budget) sheds our coldest entries,
        // but never the entry just inserted.
        if let Some(budget) = &self.budget {
            let budget = Arc::clone(budget);
            while budget.pressure() >= Pressure::Soft && self.map.len() > 1 {
                if !self.evict_lru() {
                    break;
                }
                self.counters.evicted_pressure += 1;
            }
        }
        true
    }

    /// Remove `key`, returning its value (counted as `removed`).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.take(key)?;
        self.counters.removed += 1;
        Some(value)
    }

    /// Drop every entry (each counted as `removed`).
    pub fn clear(&mut self) {
        let n = self.map.len() as u64;
        let bytes = self.bytes;
        self.map.clear();
        self.bytes = 0;
        if let Some(b) = &self.budget {
            b.release(bytes);
        }
        self.counters.removed += n;
    }

    /// Remove `key` and release its cost, without classifying the drop
    /// (callers count it).
    fn take(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.bytes = self.bytes.saturating_sub(slot.cost);
        if let Some(b) = &self.budget {
            b.release(slot.cost);
        }
        Some(slot.value)
    }

    /// Evict the least-recently-used entry (uncounted; callers attach
    /// the fate). Linear min-scan: capacities here are tens of
    /// entries, and the scan touches only the small slot headers.
    fn evict_lru(&mut self) -> bool {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, s)| s.last_used)
            // alloc: cold (eviction; keys are small handles)
            .map(|(k, _)| k.clone());
        oldest.is_some_and(|k| self.take(&k).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, ttl: u64) -> TtlLru<u64, u64> {
        TtlLru::new(TtlLruConfig { capacity, ttl })
    }

    #[test]
    fn budget_grants_release_and_peak() {
        let b = MemoryBudget::new(100, 200);
        assert_eq!(b.try_grant(80), Ok(Pressure::Ok));
        assert_eq!(b.try_grant(40), Ok(Pressure::Soft), "80+40 > soft");
        assert_eq!(b.used(), 120);
        assert_eq!(b.soft_events(), 1);
        // A grant that would cross hard is refused and untracked.
        assert_eq!(b.try_grant(100), Err(Pressure::Hard));
        assert_eq!(b.used(), 120);
        assert_eq!(b.hard_events(), 1);
        b.release(120);
        assert_eq!(b.used(), 0);
        assert_eq!(b.pressure(), Pressure::Ok);
        assert_eq!(b.peak(), 120, "peak survives release");
        // Over-release clamps instead of wrapping.
        b.release(50);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn peak_never_exceeds_hard() {
        let b = MemoryBudget::new(10, 64);
        for i in 0..100u64 {
            let _ = b.try_grant(i % 7 + 1);
        }
        assert!(b.peak() <= b.hard_limit());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = cache(2, u64::MAX);
        assert!(c.insert(1, 10, 8));
        assert!(c.insert(2, 20, 8));
        assert_eq!(c.get(&1), Some(&10), "touch 1 so 2 is LRU");
        assert!(c.insert(3, 30, 8));
        assert_eq!(c.len(), 2);
        assert!(c.get(&2).is_none(), "LRU evicted");
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.counters().evicted_lru, 1);
    }

    #[test]
    fn ttl_expires_on_logical_clock() {
        let mut c = cache(8, 10);
        c.advance(100);
        assert!(c.insert(1, 1, 4));
        c.advance(110);
        assert_eq!(c.get(&1), Some(&1), "at ttl edge");
        c.advance(111);
        assert!(c.get(&1).is_none(), "past ttl");
        assert_eq!(c.counters().expired, 1);
        // The sweep in advance() also drops cold entries.
        assert!(c.insert(2, 2, 4));
        c.advance(200);
        assert!(c.is_empty());
        assert_eq!(c.counters().expired, 2);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn advance_is_monotonic() {
        let mut c = cache(8, 10);
        c.advance(100);
        assert!(c.insert(1, 1, 4));
        c.advance(50); // ignored: older than current clock
        assert_eq!(c.get(&1), Some(&1));
    }

    #[test]
    fn budget_evict_to_fit_and_rejection() {
        let b = Arc::new(MemoryBudget::new(64, 64));
        let mut c = cache(16, u64::MAX);
        c.set_budget(Arc::clone(&b));
        assert!(c.insert(1, 1, 30));
        assert!(c.insert(2, 2, 30));
        // 30+30+30 > 64: must evict to fit.
        assert!(c.insert(3, 3, 30));
        assert!(c.len() < 3);
        assert!(b.used() <= b.hard_limit());
        assert!(c.counters().evicted_pressure > 0);
        // A value that can never fit is rejected, not cached.
        assert!(!c.insert(4, 4, 1000));
        assert_eq!(c.counters().rejected, 1);
        assert!(c.get(&4).is_none());
        assert!(b.peak() <= b.hard_limit());
    }

    #[test]
    fn shared_budget_sheds_sibling_cache() {
        let b = Arc::new(MemoryBudget::new(50, 200));
        let mut a = cache(16, u64::MAX);
        a.set_budget(Arc::clone(&b));
        let mut z = cache(16, u64::MAX);
        z.set_budget(Arc::clone(&b));
        assert!(a.insert(1, 1, 40));
        assert_eq!(a.len(), 1);
        // Sibling insert crosses soft; it keeps its own newest entry
        // and sheds down to it, leaving the budget's pressure caused
        // by cache `a` visible in the shrink loop exit.
        assert!(z.insert(1, 1, 40));
        assert_eq!(z.len(), 1, "newest entry survives");
        // Another insert into `a` now sheds a's older entry under
        // sustained soft pressure.
        assert!(a.insert(2, 2, 40));
        assert_eq!(a.len(), 1);
        assert!(a.counters().evicted_pressure > 0);
    }

    #[test]
    fn set_budget_charges_entries_already_held() {
        let b = Arc::new(MemoryBudget::new(200, 200));
        let mut warm = cache(8, u64::MAX);
        assert!(warm.insert(1, 1, 30));
        assert!(warm.insert(2, 2, 30));
        warm.set_budget(Arc::clone(&b));
        assert_eq!(b.used(), 60, "the carried entries are charged");
        let mut sibling = cache(8, u64::MAX);
        sibling.set_budget(Arc::clone(&b));
        assert!(sibling.insert(1, 1, 50));
        // Dropping a carried entry releases only what it was granted:
        // the sibling's bytes stay on the ledger.
        assert_eq!(warm.remove(&1), Some(1));
        assert_eq!(b.used(), 30 + 50);
        warm.clear();
        assert_eq!(b.used(), 50);
        // A carry that alone breaks the hard limit drops every entry.
        let mut big = cache(8, u64::MAX);
        for k in 0..3 {
            assert!(big.insert(k, k, 60));
        }
        big.set_budget(Arc::clone(&b));
        assert!(big.is_empty());
        assert_eq!((big.bytes(), big.counters().evicted_pressure), (0, 3));
        assert_eq!(b.used(), 50, "nothing was granted for the dropped carry");
    }

    #[test]
    fn counters_reconcile_exactly() {
        let mut c = cache(4, 20);
        let mut inserted = 0u64;
        for i in 0..50u64 {
            c.advance(i * 3);
            if c.insert(i % 9, i, 16) {
                inserted += 1;
            }
            let _ = c.get(&(i % 5));
        }
        let s = c.counters();
        assert_eq!(s.inserted, inserted);
        assert_eq!(
            s.inserted,
            c.len() as u64
                + s.evicted_lru
                + s.expired
                + s.evicted_pressure
                + s.replaced
                + s.removed,
            "every insert is live or counted under exactly one drop fate"
        );
    }

    #[test]
    fn replace_and_remove_account_bytes() {
        let mut c = cache(4, u64::MAX);
        assert!(c.insert(1, 1, 10));
        assert!(c.insert(1, 2, 30));
        assert_eq!(c.bytes(), 30, "replacement swaps the cost");
        assert_eq!(c.counters().replaced, 1);
        assert_eq!(c.remove(&1), Some(2));
        assert_eq!(c.bytes(), 0);
        assert!(c.remove(&1).is_none());
        c.insert(5, 5, 7);
        c.clear();
        assert_eq!((c.len(), c.bytes()), (0, 0));
    }
}
