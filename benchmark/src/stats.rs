//! Order statistics the benchmark reports: medians, tail percentiles
//! that refuse to be read off too few samples, and the quartile spread
//! the acceptance rule is stated in.

/// Samples that must lie beyond a reported percentile (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Why [`percentile`] declined to answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFew {
    /// Samples offered.
    pub n: usize,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: usize,
}

impl std::fmt::Display for TooFew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile; {MIN_BEYOND} are required",
            self.n, self.beyond
        )
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of an ascending slice.
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFew> {
    let n = sorted.len();
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    match sorted.get(rank - 1) {
        Some(&v) if beyond >= MIN_BEYOND => Ok(v),
        _ => Err(TooFew { n, beyond }),
    }
}

/// Median of an ascending slice (mean of the two middle values when the
/// length is even); 0 for an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times: smaller is better, interference makes them larger.
    Lower,
    /// Rates: larger is better, interference makes them smaller.
    Higher,
}

/// Of per-chunk values of one statistic, the one an eighth of the way
/// in from the undisturbed end (nearest rank): the lower octile of
/// times, the upper octile of rates. With fewer than nine chunks that is
/// the best chunk; 0 for no chunks.
pub fn undisturbed(per_chunk: &[f64], better: Better) -> f64 {
    let mut v = per_chunk.to_vec();
    sort(&mut v);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let eighth = last / 8;
    match better {
        Better::Lower => v[eighth],
        Better::Higher => v[last - eighth],
    }
}

/// Sort ascending (total order; the harness never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) gives them — the acceptance
/// rule's definition. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| -> f64 {
        // j, delta = divmod(i * (n + 1), 4), with j clamped to [1, n-1].
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Quartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p95 leaves 5.
        assert_eq!(percentile(&v, 0.90), Ok(90.0));
        assert_eq!(percentile(&v, 0.95), Err(TooFew { n: 100, beyond: 5 }));
        assert!(percentile(&[], 0.5).is_err());
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Ok(990.0));
    }

    #[test]
    fn undisturbed_is_an_eighth_in_from_the_good_end() {
        let v: Vec<f64> = (1..=17).map(f64::from).collect();
        assert_eq!(undisturbed(&v, Better::Lower), 3.0);
        assert_eq!(undisturbed(&v, Better::Higher), 15.0);
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
        assert_eq!(undisturbed(&[7.0], Better::Higher), 7.0);
        assert_eq!(undisturbed(&[], Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
