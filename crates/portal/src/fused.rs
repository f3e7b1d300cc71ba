//! Fused single-pass Fig. 4 scan: all four portal histogram panels
//! computed from two walks over the matched rows.
//!
//! The pre-fused path ran `column()` → `hours()` → `Histogram::build`
//! four times per query (twelve row passes, an intermediate `Vec<f64>`
//! per panel, plus `build`'s own clone of the finite values). This
//! module replaces all of it with two passes that fill every panel at
//! once:
//!
//! 1. **Extent pass** — `(n, min, max)` for every panel ([`Extent`]).
//! 2. **Count pass** — dense bucket counts, a fixed
//!    `[[u32; BINS]; PANELS]` array on the stack, filled against bin
//!    geometry derived once from the extents.
//!
//! The per-value bin index depends only on the extents, and both are
//! computed with the same transform and the same `lo`/`width` rule, so
//! the result is bit-identical to the sequential
//! [`Histogram::build`](crate::hist::Histogram) pipeline (proptested in
//! `tests/fused_props.rs`). This file is panic-free and allocation-free
//! (`cargo xtask lint` deny tiers): no indexing, no unwraps, and no heap
//! allocation in a scan.

use tacc_jobdb::table::Row;

/// Bins per panel — the Fig. 4 layout.
pub const BINS: usize = 12;

/// Panels per figure (runtime, nodes, queue wait, metadata requests).
pub const PANELS: usize = 4;

/// One panel of the fused scan: which column feeds it and how values
/// are transformed, mirroring the sequential pipeline exactly
/// (`value / divisor`, then log10 binning if `log`).
#[derive(Clone, Copy, Debug)]
pub struct PanelCfg {
    /// Resolved column index (`None` = column absent: empty panel).
    pub col: Option<usize>,
    /// Divisor applied before binning (3600.0 for the hours panels,
    /// 1.0 otherwise — `x / 1.0` is exact, so the transform is a
    /// no-op bit for bit where the sequential path applied none).
    pub divisor: f64,
    /// Log10 bin geometry (the metadata-requests panel).
    pub log: bool,
}

/// Streaming `(n, min, max)` over one panel's finite values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extent {
    /// Finite values seen.
    pub n: usize,
    /// Smallest finite value (`+inf` when `n == 0`).
    pub min: f64,
    /// Largest finite value (`-inf` when `n == 0`).
    pub max: f64,
}

impl Extent {
    /// The fold identity.
    pub const EMPTY: Extent = Extent {
        n: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn push(&mut self, v: f64) {
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// Bin geometry for one panel in transformed space: bin `i` spans
/// `[lo + i·width, lo + (i+1)·width)`, last bin clamped open-ended —
/// the same `lo`/`width` rule as `Histogram::build`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid {
    /// Transformed lower edge (`tx(min)`).
    pub lo: f64,
    /// Bin width (`1.0` when the extent is degenerate or empty).
    pub width: f64,
}

/// The result of a fused scan: per-panel extents, derived bin geometry,
/// and bucket counts. Plain `Copy` data —
/// [`crate::hist::Fig4Panels::from_fused`] turns it into histograms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FusedFig4 {
    /// Per-panel value extents.
    pub extents: [Extent; PANELS],
    /// Per-panel bin geometry derived from the extents.
    pub grids: [Grid; PANELS],
    /// Per-panel bucket counts.
    pub counts: [[u32; BINS]; PANELS],
}

/// The sequential transform each panel applies before binning.
fn tx(v: f64, log: bool) -> f64 {
    if log {
        v.max(1e-9).log10()
    } else {
        v
    }
}

/// One panel's transformed value for one row, `None` for null columns,
/// absent columns, and non-finite transforms — the exact skip set of
/// the sequential `column()` + `is_finite()` pipeline.
fn panel_value(row: &Row, cfg: &PanelCfg) -> Option<f64> {
    let col = cfg.col?;
    let v = row.get(col).as_f64()?;
    let t = v / cfg.divisor;
    t.is_finite().then_some(t)
}

/// Extent pass: all four panels in a single row walk.
fn scan_extents(rows: &[&Row], cfgs: &[PanelCfg; PANELS]) -> [Extent; PANELS] {
    let mut ext = [Extent::EMPTY; PANELS];
    for row in rows {
        for (cfg, e) in cfgs.iter().zip(ext.iter_mut()) {
            if let Some(t) = panel_value(row, cfg) {
                e.push(t);
            }
        }
    }
    ext
}

/// Count pass: dense bucket counts for all four panels against the bin
/// geometry.
fn scan_counts(
    rows: &[&Row],
    cfgs: &[PanelCfg; PANELS],
    grids: &[Grid; PANELS],
) -> [[u32; BINS]; PANELS] {
    let mut counts = [[0u32; BINS]; PANELS];
    for row in rows {
        for ((cfg, g), panel) in cfgs.iter().zip(grids.iter()).zip(counts.iter_mut()) {
            if let Some(t) = panel_value(row, cfg) {
                let idx = (((tx(t, cfg.log) - g.lo) / g.width) as usize).min(BINS - 1);
                if let Some(c) = panel.get_mut(idx) {
                    *c = c.saturating_add(1);
                }
            }
        }
    }
    counts
}

/// Bin geometry from an extent — the `Histogram::build` rule.
fn grid_of(e: &Extent, log: bool) -> Grid {
    if e.n == 0 {
        return Grid {
            lo: 0.0,
            width: 1.0,
        };
    }
    let lo = tx(e.min, log);
    let hi = tx(e.max, log);
    let width = if hi > lo {
        (hi - lo) / BINS as f64
    } else {
        1.0
    };
    Grid { lo, width }
}

/// Run the fused four-panel scan over `rows`: the extent pass, the bin
/// geometry, then the count pass. Allocation-free.
pub fn scan(rows: &[&Row], cfgs: &[PanelCfg; PANELS]) -> FusedFig4 {
    let extents = scan_extents(rows, cfgs);
    let mut grids = [Grid {
        lo: 0.0,
        width: 1.0,
    }; PANELS];
    for ((g, e), cfg) in grids.iter_mut().zip(extents.iter()).zip(cfgs.iter()) {
        *g = grid_of(e, cfg.log);
    }
    let counts = scan_counts(rows, cfgs, &grids);
    FusedFig4 {
        extents,
        grids,
        counts,
    }
}
