//! Statistics over (aligned) series: the correlation machinery behind the
//! paper's §V-B production-population numbers and the §VI-A interference
//! analysis.

/// Pearson correlation coefficient of paired samples. Returns `None` for
/// fewer than two pairs or zero variance on either side.
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    let n = pairs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = pairs.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = pairs.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (x, y) in pairs {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Mean of a slice (None if empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// p-quantile (0..=1) by linear interpolation on a sorted copy.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        Some(v[lo] + (pos - lo as f64) * (v[hi] - v[lo]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pearson_perfect_correlations() {
        let up: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((pearson(&up).unwrap() - 1.0).abs() < 1e-12);
        let down: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -3.0 * i as f64)).collect();
        assert!((pearson(&down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[]), None);
        assert_eq!(pearson(&[(1.0, 2.0)]), None);
        assert_eq!(pearson(&[(1.0, 2.0), (1.0, 3.0)]), None); // zero x variance
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 4.0), (4.0, 3.0)];
        let r = pearson(&pairs).unwrap();
        assert!((r - 0.6).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn quantiles_and_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(mean(&[]), None);
        assert_eq!(quantile(&xs, 1.5), None);
    }

    proptest! {
        /// |r| <= 1 always.
        #[test]
        fn pearson_bounded(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..50)) {
            if let Some(r) = pearson(&pairs) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        /// Invariance under affine transforms with positive scale.
        #[test]
        fn pearson_affine_invariant(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..30),
            a in 0.1f64..10.0,
            b in -100.0f64..100.0,
        ) {
            let scaled: Vec<(f64, f64)> = pairs.iter().map(|(x, y)| (a * x + b, *y)).collect();
            match (pearson(&pairs), pearson(&scaled)) {
                (Some(r1), Some(r2)) => prop_assert!((r1 - r2).abs() < 1e-6),
                (None, None) => {}
                // Scaling can push a tiny variance to exactly zero (or
                // rescue it); tolerate the disagreement only near zero
                // variance, which the generator rarely hits.
                _ => {}
            }
        }
    }
}
