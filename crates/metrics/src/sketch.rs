//! Streaming quantile sketches (Greenwald–Khanna).
//!
//! A [`QuantileSketch`] answers quantile and rank questions about a
//! stream of values from O(1/ε) state, without keeping the values:
//!
//! * **Structure.** The classic GK01 summary: a sorted list of tuples
//!   `(v, g, Δ)` where `g` is the gap in minimum rank to the previous
//!   tuple and `Δ` the extra rank uncertainty. A new value is inserted
//!   with `g = 1` and `Δ = ⌊2εn⌋ − 1` (`Δ = 0` at the extremes);
//!   adjacent tuples merge whenever `g_i + g_{i+1} + Δ_{i+1} < ⌊2εn⌋`.
//!
//! * **Error bound.** The merge rule maintains the GK invariant
//!   `g_i + Δ_i ≤ ⌊2εn⌋` for every tuple, which bounds every rank
//!   query's uncertainty interval to `2εn` — so a quantile or rank
//!   answer is within **εn ranks** of exact, deterministically (no
//!   randomization, unlike KLL). The bound is enforced by a proptest
//!   against exact sorted data (`tests/stream_props.rs`).
//!
//! * **Allocation.** The tuple vector is preallocated at construction
//!   to the GK worst-case working size (≈ 11/(2ε) tuples in practice;
//!   we reserve a conservative 8/ε). Steady-state `update` calls are
//!   0 allocs/op: `Vec::insert` shifts within capacity and compression
//!   only shrinks. If a pathological stream outgrows the reservation
//!   the vector regrows (correctness unaffected).

/// One GK tuple: value, rank gap to predecessor, rank uncertainty.
#[derive(Clone, Copy, Debug)]
struct Entry {
    v: f64,
    g: u64,
    d: u64,
}

/// A Greenwald–Khanna streaming quantile summary with rank error
/// `≤ εn`.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    eps: f64,
    entries: Vec<Entry>,
    n: u64,
    min: f64,
    max: f64,
    since_compress: u64,
    compress_every: u64,
}

/// Default rank-error fraction ε: quantiles are within 0.5% of the
/// population in rank.
pub const DEFAULT_EPS: f64 = 0.005;

impl QuantileSketch {
    /// New sketch with rank error `eps` (clamped to `[1e-4, 0.5]`).
    // alloc: cold-fn (one preallocation per sketch at construction)
    pub fn new(eps: f64) -> QuantileSketch {
        let eps = eps.clamp(1e-4, 0.5);
        QuantileSketch {
            eps,
            entries: Vec::with_capacity((8.0 / eps) as usize),
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            since_compress: 0,
            compress_every: (1.0 / (2.0 * eps)) as u64 + 1,
        }
    }

    /// The configured rank-error fraction ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest observed value (exact). `None` before any update.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observed value (exact). `None` before any update.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Current number of stored tuples (the O(1/ε) working size).
    pub fn tuples(&self) -> usize {
        self.entries.len()
    }

    /// `⌊2εn⌋` — the merge threshold and rank-uncertainty budget.
    fn threshold(&self) -> u64 {
        (2.0 * self.eps * self.n as f64).floor() as u64
    }

    /// Observe one value. Non-finite values are ignored (matching
    /// [`crate::table1::JobMetrics::set`]). Steady-state 0 allocs/op.
    pub fn update(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.n += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let pos = self.entries.partition_point(|e| e.v < v);
        let d = if pos == 0 || pos == self.entries.len() {
            0
        } else {
            self.threshold().saturating_sub(1)
        };
        self.entries.insert(pos, Entry { v, g: 1, d });
        self.since_compress += 1;
        if self.since_compress >= self.compress_every {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merge adjacent tuples whose combined rank span stays under the
    /// GK budget. One in-place left-to-right pass: `carry` accumulates
    /// the `g` of tuples merged into their successor.
    fn compress(&mut self) {
        let len = self.entries.len();
        if len <= 2 {
            return;
        }
        let threshold = self.threshold();
        let mut w = 1usize; // entries[0] (the minimum) is kept verbatim
        let mut carry = 0u64;
        for r in 1..len - 1 {
            let Some(e) = self.entries.get(r).copied() else {
                break;
            };
            let Some(next) = self.entries.get(r + 1).copied() else {
                break;
            };
            let g = carry + e.g;
            if g + next.g + next.d < threshold {
                carry = g;
            } else {
                if let Some(slot) = self.entries.get_mut(w) {
                    *slot = Entry { v: e.v, g, d: e.d };
                }
                w += 1;
                carry = 0;
            }
        }
        let Some(last) = self.entries.get(len - 1).copied() else {
            return;
        };
        if let Some(slot) = self.entries.get_mut(w) {
            *slot = Entry {
                v: last.v,
                g: last.g + carry,
                d: last.d,
            };
        }
        self.entries.truncate(w + 1);
    }

    /// The value at quantile `phi` in `[0, 1]`, within `εn` ranks of
    /// exact. `None` before any update.
    pub fn quantile(&self, phi: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        if phi <= 0.0 {
            return Some(self.min);
        }
        if phi >= 1.0 {
            return Some(self.max);
        }
        let rank = (phi * self.n as f64).ceil() as u64;
        let margin = (self.threshold() / 2).max(1);
        let mut rmin = 0u64;
        let mut prev_v = self.min;
        for e in &self.entries {
            rmin += e.g;
            if rmin + e.d > rank + margin {
                return Some(prev_v);
            }
            prev_v = e.v;
        }
        Some(self.max)
    }

    /// Estimated number of observed values `≤ v`, within `εn` of exact
    /// (midpoint of the tuple's rank-uncertainty interval).
    pub fn rank(&self, v: f64) -> u64 {
        if self.n == 0 || v < self.min {
            return 0;
        }
        if v >= self.max {
            return self.n;
        }
        let mut rmin = 0u64;
        let mut prev_rmin = 0u64;
        let mut prev_d = 0u64;
        for e in &self.entries {
            if e.v > v {
                return prev_rmin + prev_d / 2;
            }
            rmin += e.g;
            prev_rmin = rmin;
            prev_d = e.d;
        }
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_rank(sorted: &[f64], v: f64) -> u64 {
        sorted.iter().filter(|x| **x <= v).count() as u64
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::new(0.01);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.rank(1.0), 0);
    }

    #[test]
    fn small_stream_is_exact_at_extremes() {
        let mut s = QuantileSketch::new(0.01);
        for v in [5.0, 1.0, 9.0, 3.0, 7.0] {
            s.update(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(9.0));
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn rank_error_within_bound_on_large_stream() {
        let eps = 0.01;
        let mut s = QuantileSketch::new(eps);
        // Deterministic scrambled order over 0..n.
        let n = 20_000u64;
        let mut vals: Vec<f64> = Vec::new();
        let mut x = 1u64;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            vals.push((x >> 33) as f64);
        }
        for v in &vals {
            s.update(*v);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let bound = eps * n as f64 + 1.0;
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = s.quantile(phi).unwrap();
            let target = (phi * n as f64).ceil();
            let lo = sorted.iter().filter(|x| **x < q).count() as f64 + 1.0;
            let hi = exact_rank(&sorted, q) as f64;
            // The true rank interval of q must come within εn of the
            // target rank.
            assert!(
                lo - bound <= target && target <= hi + bound,
                "phi={phi}: rank interval [{lo}, {hi}] vs target {target} (bound {bound})"
            );
        }
        // Working size stays O(1/ε), far below n.
        assert!(s.tuples() < (8.0 / eps) as usize, "{} tuples", s.tuples());
    }

    #[test]
    fn rank_query_within_bound() {
        let eps = 0.02;
        let mut s = QuantileSketch::new(eps);
        let n = 5_000;
        for i in 0..n {
            // Interleaved ascending/descending to stress insert order.
            let v = if i % 2 == 0 { i as f64 } else { (n - i) as f64 };
            s.update(v);
        }
        let sorted: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { i as f64 } else { (n - i) as f64 })
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let mut sorted = sorted;
        sorted.sort_by(f64::total_cmp);
        let bound = (eps * n as f64) as i64 + 1;
        for v in [10.0, 100.0, 1000.0, 2500.0, 4900.0] {
            let est = s.rank(v) as i64;
            let exact = exact_rank(&sorted, v) as i64;
            assert!(
                (est - exact).abs() <= bound,
                "rank({v}): est {est}, exact {exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn duplicates_collapse() {
        let mut s = QuantileSketch::new(0.01);
        for _ in 0..10_000 {
            s.update(42.0);
        }
        assert_eq!(s.quantile(0.5), Some(42.0));
        assert!(s.tuples() < 200, "{} tuples", s.tuples());
    }
}
