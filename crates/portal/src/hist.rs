//! Histograms — the automatic four-panel figure every portal query
//! returns (Fig. 4): jobs versus runtime, nodes, queue wait time, and
//! maximum metadata requests.

use crate::fused::{Extent, FusedFig4, Grid, BINS};
use crate::render;

/// The canonical Fig. 4 panel layout: `(title, column, divisor, log)`
/// per panel, in panel order. Single source of truth shared by the
/// sequential [`Fig4Panels::new`] titles, the fused scan's
/// [`PanelCfg`](crate::fused::PanelCfg) derivation in
/// [`JobList::fig4`](crate::search::JobList::fig4), and the benches —
/// so the two paths cannot drift apart.
pub const FIG4_PANELS: [(&str, &str, f64, bool); 4] = [
    ("Jobs vs Runtime (h)", "run_time", 3600.0, false),
    ("Jobs vs Nodes", "nodes", 1.0, false),
    ("Jobs vs Queue Wait (h)", "queue_wait", 3600.0, false),
    ("Jobs vs Max Metadata Reqs (1/s)", "MetaDataRate", 1.0, true),
];

/// A 1-D histogram with fixed-width (linear or logarithmic) bins.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Title shown above the panel.
    pub title: String,
    /// Bin lower edges (the last bin's upper edge is `max`).
    pub edges: Vec<f64>,
    /// Counts per bin.
    pub counts: Vec<usize>,
    /// Smallest value observed.
    pub min: f64,
    /// Largest value observed.
    pub max: f64,
    /// Values histogrammed.
    pub n: usize,
    /// Whether bins are logarithmic.
    pub log: bool,
}

impl Histogram {
    /// Build a linear histogram with `bins` equal-width bins.
    pub fn linear(title: &str, values: &[f64], bins: usize) -> Histogram {
        Self::build(title, values, bins, false)
    }

    /// Build a log10 histogram (values ≤ 0 are clamped into the lowest
    /// bin) — used for the metadata-requests panel where outliers span
    /// orders of magnitude.
    pub fn log10(title: &str, values: &[f64], bins: usize) -> Histogram {
        Self::build(title, values, bins, true)
    }

    /// The panel of no finite values: `bins` zero counts beside a
    /// single placeholder edge (the shape the portal cache's byte
    /// costing has always charged for).
    fn empty(title: &str, bins: usize, log: bool) -> Histogram {
        Histogram {
            title: title.to_string(),
            edges: vec![0.0],
            counts: vec![0; bins],
            min: 0.0,
            max: 0.0,
            n: 0,
            log,
        }
    }

    fn build(title: &str, values: &[f64], bins: usize, log: bool) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        // Single extent pass over the original slice — no intermediate
        // clone of the finite values.
        let (mut n, mut min, mut max) = (0usize, f64::INFINITY, f64::NEG_INFINITY);
        for v in values.iter().filter(|v| v.is_finite()) {
            n += 1;
            min = min.min(*v);
            max = max.max(*v);
        }
        if n == 0 {
            return Self::empty(title, bins, log);
        }
        let tx = |v: f64| -> f64 {
            if log {
                v.max(1e-9).log10()
            } else {
                v
            }
        };
        let (lo, hi) = (tx(min), tx(max));
        let width = if hi > lo {
            (hi - lo) / bins as f64
        } else {
            1.0
        };
        let mut counts = vec![0usize; bins];
        for v in values.iter().filter(|v| v.is_finite()) {
            let idx = (((tx(*v) - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let edges = (0..bins)
            .map(|i| {
                let e = lo + i as f64 * width;
                if log {
                    10f64.powf(e)
                } else {
                    e
                }
            })
            .collect();
        Histogram {
            title: title.to_string(),
            edges,
            counts,
            min,
            max,
            n,
            log,
        }
    }

    /// Rehydrate one panel from a fused-scan extent, grid, and count
    /// array. Edges follow the same `lo + i·width` (and `10^e` for log
    /// panels) rule as [`Histogram::build`], from the same `lo`/`width`
    /// arithmetic, so the result is bit-identical to a sequential build
    /// over the panel's values.
    pub fn from_fused(
        title: &str,
        e: &Extent,
        g: &Grid,
        counts: &[u32; BINS],
        log: bool,
    ) -> Histogram {
        if e.n == 0 {
            return Self::empty(title, BINS, log);
        }
        let edges = (0..BINS)
            .map(|i| {
                let edge = g.lo + i as f64 * g.width;
                if log {
                    10f64.powf(edge)
                } else {
                    edge
                }
            })
            .collect();
        Histogram {
            title: title.to_string(),
            edges,
            counts: counts.iter().map(|c| *c as usize).collect(),
            min: e.min,
            max: e.max,
            n: e.n,
            log,
        }
    }

    /// Total count across bins (== number of finite values).
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Render as a horizontal-bar ASCII panel: the title line, then one
    /// bar per bin. A panel of no values has no bin edges to label and
    /// renders as its title line alone.
    pub fn render(&self) -> String {
        let mut out = format!("{} (n = {})\n", self.title, self.n);
        if self.n == 0 {
            return out;
        }
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let uppers = self.edges.iter().skip(1).chain(std::iter::once(&self.max));
        for ((lo, hi), c) in self.edges.iter().zip(uppers).zip(&self.counts) {
            let bar_len = (c * 50).div_ceil(peak);
            let bar: String = "#".repeat(if *c > 0 { bar_len.max(1) } else { 0 });
            out.push_str(&format!(
                "  [{:>10} – {:>10}] {:>7} {}\n",
                render::num(*lo),
                render::num(*hi),
                c,
                bar
            ));
        }
        out
    }
}

/// The standard Fig. 4 four-panel set over a job list's columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig4Panels {
    /// Jobs vs runtime (hours).
    pub runtime: Histogram,
    /// Jobs vs node count.
    pub nodes: Histogram,
    /// Jobs vs queue wait (hours).
    pub queue_wait: Histogram,
    /// Jobs vs maximum metadata request rate (log bins — the panel
    /// where the §V-B outliers are visible).
    pub metadata_reqs: Histogram,
}

impl Fig4Panels {
    /// Build the four panels from per-job vectors.
    pub fn new(
        runtime_hours: &[f64],
        nodes: &[f64],
        queue_wait_hours: &[f64],
        metadata_reqs: &[f64],
    ) -> Fig4Panels {
        Fig4Panels {
            runtime: Histogram::linear("Jobs vs Runtime (h)", runtime_hours, 12),
            nodes: Histogram::linear("Jobs vs Nodes", nodes, 12),
            queue_wait: Histogram::linear("Jobs vs Queue Wait (h)", queue_wait_hours, 12),
            metadata_reqs: Histogram::log10("Jobs vs Max Metadata Reqs (1/s)", metadata_reqs, 12),
        }
    }

    /// Rehydrate the four panels from a fused single-pass scan
    /// ([`crate::fused::scan`]) — titles and panel order come from
    /// [`FIG4_PANELS`], so the result is bit-identical to
    /// [`Fig4Panels::new`] over the same rows.
    pub fn from_fused(f: &FusedFig4) -> Fig4Panels {
        let panel = |i: usize| {
            let (title, _col, _div, log) = FIG4_PANELS[i];
            Histogram::from_fused(title, &f.extents[i], &f.grids[i], &f.counts[i], log)
        };
        Fig4Panels {
            runtime: panel(0),
            nodes: panel(1),
            queue_wait: panel(2),
            metadata_reqs: panel(3),
        }
    }

    /// Render all four panels.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}",
            self.runtime.render(),
            self.nodes.render(),
            self.queue_wait.render(),
            self.metadata_reqs.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_histogram_bins_correctly() {
        let h = Histogram::linear("t", &[0.0, 0.5, 1.0, 1.5, 2.0], 4);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts, vec![1, 1, 1, 2]); // max lands in last bin
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2.0);
    }

    #[test]
    fn log_histogram_separates_outliers() {
        // 99 jobs near 10 req/s, one at 563905: with log bins the
        // outlier occupies a distant bin (the Fig. 4 signature).
        let mut vals = vec![10.0; 99];
        vals.push(563_905.0);
        let h = Histogram::log10("md", &vals, 10);
        assert_eq!(h.counts[0], 99);
        assert_eq!(*h.counts.last().unwrap(), 1);
        assert!(h.counts[1..9].iter().all(|c| *c == 0));
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Histogram::linear("e", &[], 5);
        assert_eq!(empty.total(), 0);
        let flat = Histogram::linear("f", &[3.0, 3.0], 5);
        assert_eq!(flat.total(), 2);
        let nan = Histogram::linear("n", &[f64::NAN, 1.0], 5);
        assert_eq!(nan.total(), 1);
    }

    #[test]
    fn render_contains_bars() {
        let h = Histogram::linear("Jobs vs Runtime (h)", &[1.0, 1.1, 5.0], 5);
        let s = h.render();
        assert!(s.contains("Jobs vs Runtime"));
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 6);
    }

    /// A panel of no finite values stores one placeholder edge beside
    /// `bins` counts; rendering it must not index past that edge.
    #[test]
    fn empty_panels_render_their_title_line_only() {
        for h in [
            Histogram::linear("e", &[], 12),
            Histogram::log10("e", &[f64::NAN, f64::INFINITY], 12),
        ] {
            assert_eq!((h.edges.len(), h.counts.len()), (1, 12), "stored shape");
            assert_eq!(h.render(), "e (n = 0)\n");
        }
        let panels = Fig4Panels::new(&[], &[], &[], &[]).render();
        assert_eq!(panels.lines().filter(|l| l.ends_with("(n = 0)")).count(), 4);
        assert!(!panels.contains('['), "no bars: {panels}");
    }

    #[test]
    fn fig4_panels_build() {
        let p = Fig4Panels::new(
            &[1.0, 2.0, 3.0],
            &[1.0, 4.0, 16.0],
            &[0.1, 0.5, 2.0],
            &[10.0, 3900.0, 563905.0],
        );
        let s = p.render();
        assert!(s.contains("Jobs vs Nodes"));
        assert!(s.contains("Max Metadata Reqs"));
        assert!(p.metadata_reqs.log);
    }

    proptest! {
        /// Bin conservation: every finite value lands in exactly one bin.
        #[test]
        fn counts_conserve_values(
            vals in proptest::collection::vec(-1e6f64..1e6, 0..200),
            bins in 1usize..30,
        ) {
            let h = Histogram::linear("p", &vals, bins);
            prop_assert_eq!(h.total(), vals.len());
            prop_assert_eq!(h.counts.len(), bins);
        }

        #[test]
        fn log_counts_conserve_positive_values(
            vals in proptest::collection::vec(1e-3f64..1e9, 1..200),
            bins in 1usize..30,
        ) {
            let h = Histogram::log10("p", &vals, bins);
            prop_assert_eq!(h.total(), vals.len());
        }
    }
}
