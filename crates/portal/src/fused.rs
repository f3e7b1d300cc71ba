//! Fused Fig. 4 scan: all four portal histogram panels computed from
//! two passes over the matched rows' panel columns.
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
//! Both passes read the jobs table's scan index
//! ([`Table::num_column`]) at the matched row indices, one panel column
//! at a time, never the boxed rows.
//!
//! The per-value bin index depends only on the extents, and both are
//! computed with the same transform and the same `lo`/`width` rule, so
//! the result is bit-identical to the sequential
//! [`Histogram::build`](crate::hist::Histogram) pipeline (proptested in
//! `tests/fused_props.rs`). This file is panic-free and allocation-free
//! (`cargo xtask lint` deny tiers): no indexing, no unwraps, and no heap
//! allocation in a scan.
//!
//! The linear panels bin each value with `build`'s formula,
//! `⌊(x − lo) / width⌋` capped at `BINS − 1`. The log panel does not
//! take a `log10` per value. Once per scan it computes the value-space
//! edges `10^(lo + k·width)`, k = 1..BINS−1 (`BINS − 1` `powf` calls),
//! and a value's bin is the number of edges at or below it. That equals
//! the formula's bin outside a relative guard band of 1e-9 around each
//! edge:
//!
//! * the band is ≈ 4e-10 wide in log space;
//! * the formula's `log10`, the edge's `powf` and the rounding of `(x −
//!   lo) / width` and `lo + k·width` together err by ≈ 1e-14 in log
//!   space (a few ulps of numbers below ~310);
//! * so a value outside the band lies on the same side of every edge in
//!   both computations.
//!
//! A value within the band of the edge below or above it takes the
//! formula. A value close to a farther edge is closer still to the
//! nearer one, so checking the two neighbours is enough. The formula is
//! also used for every value when an edge is not finite, and values at
//! or under the 1e-9 clamp all take the clamp's bin, computed once.

use crate::hist::FIG4_PANELS;
use tacc_jobdb::table::Table;
use tacc_jobdb::NumColumn;

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

/// One panel's transformed value for row `i`, `None` for null cells,
/// absent or non-numeric columns, and non-finite transforms — the exact
/// skip set of the sequential `column()` + `is_finite()` pipeline.
fn panel_value(col: Option<NumColumn<'_>>, cfg: &PanelCfg, i: u32) -> Option<f64> {
    let v = col?.get(i as usize)?;
    let t = v / cfg.divisor;
    t.is_finite().then_some(t)
}

/// Extent pass: one walk of the matched rows per panel column.
fn scan_extents(
    cols: &[Option<NumColumn<'_>>; PANELS],
    idxs: &[u32],
    cfgs: &[PanelCfg; PANELS],
) -> [Extent; PANELS] {
    let mut ext = [Extent::EMPTY; PANELS];
    for ((col, cfg), e) in cols.iter().zip(cfgs).zip(ext.iter_mut()) {
        for &i in idxs {
            if let Some(t) = panel_value(*col, cfg, i) {
                e.push(t);
            }
        }
    }
    ext
}

/// Count pass: dense bucket counts for every panel against its bin
/// geometry, one walk of the matched rows per panel column.
fn scan_counts(
    cols: &[Option<NumColumn<'_>>; PANELS],
    idxs: &[u32],
    cfgs: &[PanelCfg; PANELS],
    grids: &[Grid; PANELS],
) -> [[u32; BINS]; PANELS] {
    let mut counts = [[0u32; BINS]; PANELS];
    for (((col, cfg), g), panel) in cols.iter().zip(cfgs).zip(grids).zip(counts.iter_mut()) {
        if cfg.log {
            let bins = LogBins::new(*g);
            count(*col, cfg, idxs, panel, |t| bins.bin(t));
        } else {
            count(*col, cfg, idxs, panel, |t| g.bin(t));
        }
    }
    counts
}

/// Add every matched row's value to its bucket of `panel`.
fn count(
    col: Option<NumColumn<'_>>,
    cfg: &PanelCfg,
    idxs: &[u32],
    panel: &mut [u32; BINS],
    bin: impl Fn(f64) -> usize,
) {
    for &i in idxs {
        if let Some(t) = panel_value(col, cfg, i) {
            if let Some(c) = panel.get_mut(bin(t)) {
                *c = c.saturating_add(1);
            }
        }
    }
}

impl Grid {
    /// The bucket of a transformed value — the `Histogram::build`
    /// formula.
    fn bin(&self, x: f64) -> usize {
        (((x - self.lo) / self.width) as usize).min(BINS - 1)
    }
}

/// Relative half-width of the guard band around each log-panel edge.
const GUARD: f64 = 1e-9;

/// The log panel's bins in value space: the inner edges `10^(lo +
/// k·width)`, k = 1..BINS−1, against which a value is binned by
/// comparisons instead of a `log10`.
struct LogBins {
    grid: Grid,
    edges: [f64; BINS - 1],
    /// The bin of every value at or under the 1e-9 clamp.
    clamped: usize,
    /// Every edge is finite: otherwise every value takes the formula.
    finite: bool,
}

impl LogBins {
    /// `BINS − 1` `powf` calls, once per scan.
    fn new(grid: Grid) -> LogBins {
        let mut edges = [0.0; BINS - 1];
        for (k, e) in (1u32..).zip(edges.iter_mut()) {
            *e = 10f64.powf(grid.lo + f64::from(k) * grid.width);
        }
        LogBins {
            grid,
            edges,
            clamped: grid.bin(tx(1e-9, true)),
            finite: edges.iter().all(|e| e.is_finite()),
        }
    }

    /// The bucket of an untransformed value: the number of edges at or
    /// below it, or the `log10` formula when it lies within the guard
    /// band of the edge on either side.
    fn bin(&self, t: f64) -> usize {
        if t <= 1e-9 {
            return self.clamped;
        }
        let past = self.edges.iter().fold(0, |n, &e| n + usize::from(t >= e));
        let near = |e: &f64| (t - e).abs() <= GUARD * e;
        let below = past.checked_sub(1).and_then(|k| self.edges.get(k));
        let above = self.edges.get(past);
        if self.finite && !below.is_some_and(near) && !above.is_some_and(near) {
            past
        } else {
            self.grid.bin(tx(t, true))
        }
    }
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

/// [`FIG4_PANELS`] resolved against `table`'s schema (an absent column
/// yields an empty panel, as `column()` returning no values did).
pub fn panel_cfgs(table: &Table) -> [PanelCfg; PANELS] {
    FIG4_PANELS.map(|(_title, col, divisor, log)| PanelCfg {
        col: table.schema().index_of(col),
        divisor,
        log,
    })
}

/// Run the fused four-panel scan over rows `idxs` of `table`: the
/// extent pass, the bin geometry, then the count pass. Allocation-free.
pub fn scan(table: &Table, idxs: &[u32], cfgs: &[PanelCfg; PANELS]) -> FusedFig4 {
    let cols = cfgs.map(|cfg| cfg.col.and_then(|c| table.num_column(c)));
    let extents = scan_extents(&cols, idxs, cfgs);
    let mut grids = [Grid {
        lo: 0.0,
        width: 1.0,
    }; PANELS];
    for ((g, e), cfg) in grids.iter_mut().zip(extents.iter()).zip(cfgs.iter()) {
        *g = grid_of(e, cfg.log);
    }
    let counts = scan_counts(&cols, idxs, cfgs, &grids);
    FusedFig4 {
        extents,
        grids,
        counts,
    }
}
