//! Property tests for the fused portal query engine: the fused Fig. 4
//! scan must be **bit-identical** to the pre-fused per-column pipeline
//! for any input and any worker count, and `matched_indices` must return
//! the same jobid-ordered rows inline and on a pool — including on
//! tables whose rows are *not* in jobid order (the galloping-merge
//! fallback).

use proptest::prelude::*;
use tacc_jobdb::table::{Row, Table};
use tacc_jobdb::{TableSchema, Value, ValueType};
use tacc_portal::fused::{FusedScratch, PAR_MIN_ROWS_PER_WORKER};
use tacc_portal::{Fig4Panels, JobList, SearchSpec};
use tacc_simnode::pool::WorkerPool;

/// One synthetic job row: jobid plus the four Fig. 4 columns, each
/// optionally Null (the ingest path never writes Null here, but the
/// fused scan must match the baseline on them anyway).
type JobRow = (i64, [Option<f64>; 4]);

/// A generated cell: selector + raw bits. `any::<f64>()` spans every
/// bit pattern (NaN, infinities, subnormals), and selector 0 maps the
/// cell to Null — every value class the scan has to classify
/// identically to the baseline.
type RawCell = (u8, f64);

/// Generated row shape (the vendored proptest supports tuples up to
/// arity 4, so the four cells ride in two pairs).
type RawRow = ((i64, RawCell), (RawCell, RawCell), RawCell);

fn cell() -> impl Strategy<Value = RawCell> {
    (0u8..10, any::<f64>())
}

fn raw_rows(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec(((0i64..500, cell()), (cell(), cell()), cell()), 0..max)
}

fn decode(c: RawCell) -> Option<f64> {
    (c.0 != 0).then_some(c.1)
}

fn decode_rows(raw: &[RawRow]) -> Vec<JobRow> {
    raw.iter()
        .map(|((id, c0), (c1, c2), c3)| (*id, [decode(*c0), decode(*c1), decode(*c2), decode(*c3)]))
        .collect()
}

fn jobs_table(rows: &[JobRow]) -> Table {
    let schema = TableSchema::new(&[
        ("jobid", ValueType::Int),
        ("run_time", ValueType::Float),
        ("nodes", ValueType::Float),
        ("queue_wait", ValueType::Float),
        ("MetaDataRate", ValueType::Float),
    ]);
    let mut t = Table::new(schema);
    for (id, cols) in rows {
        let cell = |v: Option<f64>| v.map(Value::Float).unwrap_or(Value::Null);
        t.insert(vec![
            Value::Int(*id),
            cell(cols[0]),
            cell(cols[1]),
            cell(cols[2]),
            cell(cols[3]),
        ])
        .expect("schema-shaped row");
    }
    t
}

/// The pre-fused reference pipeline, kept here as the oracle: one
/// column materialization and one three-pass histogram build per panel.
fn fig4_baseline(list: &JobList) -> Fig4Panels {
    let hours = |name: &str| -> Vec<f64> { list.column(name).iter().map(|s| s / 3600.0).collect() };
    Fig4Panels::new(
        &hours("run_time"),
        &list.column("nodes"),
        &hours("queue_wait"),
        &list.column("MetaDataRate"),
    )
}

fn assert_fig4_eq(rows: &[JobRow], workers: usize) {
    let t = jobs_table(rows);
    let list = SearchSpec::default().run(&t).expect("empty filter");
    let baseline = fig4_baseline(&list);
    assert_eq!(list.fig4(), baseline, "sequential fused != baseline");
    let pool = WorkerPool::new(workers);
    assert_eq!(
        list.fig4_scratch(Some(&pool), &mut FusedScratch::default()),
        baseline,
        "fused pooled != baseline at {workers} workers"
    );
}

/// The rows `spec` matches, scanned on `pool`.
fn pooled_rows<'t>(spec: &SearchSpec, t: &'t Table, pool: &WorkerPool) -> Vec<&'t Row> {
    let idxs = spec.matched_indices(t, Some(pool)).expect("valid column");
    idxs.iter().map(|&i| &t.rows()[i as usize]).collect()
}

proptest! {
    /// Fused Fig. 4 == per-column baseline, bit for bit, at any worker
    /// count, over values including NaN/inf/Null.
    #[test]
    fn fused_fig4_matches_baseline(raw in raw_rows(120), workers in 1usize..6) {
        assert_fig4_eq(&decode_rows(&raw), workers);
    }

    /// Inline and pooled `matched_indices` agree on jobid-ordered tables
    /// (ordered-concat path) and on shuffled tables (merge fallback),
    /// with a real filter in play.
    #[test]
    fn pooled_search_matches_inline(
        raw in raw_rows(120),
        workers in 1usize..6,
        shuffle_seed in 0u64..1000,
        threshold in -1e6f64..1e6,
    ) {
        let mut rows = decode_rows(&raw);
        // Deterministic shuffle so half the inputs exercise the
        // out-of-order fallback.
        let n = rows.len();
        if shuffle_seed % 2 == 1 && n > 0 {
            for i in 0..n {
                let j = ((shuffle_seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
                rows.swap(i, j);
            }
        }
        let t = jobs_table(&rows);
        let spec = SearchSpec::default().field("MetaDataRate__gte", threshold);
        let pool = WorkerPool::new(workers);
        let seq = spec.run(&t).expect("valid column");
        prop_assert_eq!(seq.rows(), &pooled_rows(&spec, &t, &pool)[..]);
        // And the jobid order really holds.
        let ids: Vec<i64> = seq
            .rows()
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("jobid should be Int, got {other:?}"),
            })
            .collect();
        prop_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "unsorted: {:?}", ids);
    }
}

#[test]
fn fused_fig4_edge_cases() {
    // Empty result set.
    assert_fig4_eq(&[], 4);
    // Single row.
    assert_fig4_eq(&[(1, [Some(3600.0), Some(2.0), Some(60.0), Some(10.0)])], 4);
    // All-NaN and all-Null columns.
    assert_fig4_eq(
        &[
            (1, [Some(f64::NAN), None, Some(f64::NAN), None]),
            (2, [Some(f64::NAN), None, Some(f64::NAN), None]),
        ],
        3,
    );
    // All-equal values (degenerate extent: hi == lo, width = 1.0).
    let row = [Some(7200.0), Some(4.0), Some(120.0), Some(500.0)];
    assert_fig4_eq(&[(1, row), (2, row), (3, row)], 5);
    // Negative and zero values through the log panel's 1e-9 clamp.
    assert_fig4_eq(
        &[
            (1, [Some(10.0), Some(1.0), Some(0.0), Some(-5.0)]),
            (2, [Some(20.0), Some(2.0), Some(1.0), Some(0.0)]),
            (3, [Some(30.0), Some(3.0), Some(2.0), Some(1e9)]),
        ],
        4,
    );
}

/// The threaded path proper (above the spawn gate): big enough that
/// both `matched_indices` and the fused scan actually fan out.
#[test]
fn threaded_paths_match_inline_above_gate() {
    let n = PAR_MIN_ROWS_PER_WORKER * 2 + 37;
    let rows: Vec<JobRow> = (0..n)
        .map(|i| {
            let f = i as f64;
            (
                i as i64,
                [
                    Some(300.0 + (f % 40.0) * 600.0),
                    Some(1.0 + (f % 16.0)),
                    Some(f % 7200.0),
                    Some((f * 600.0) % 1e6),
                ],
            )
        })
        .collect();
    let t = jobs_table(&rows);
    let spec = SearchSpec::default().field("MetaDataRate__gte", 10_000.0);
    let pool = WorkerPool::new(2);
    assert!(
        t.rows().len() >= PAR_MIN_ROWS_PER_WORKER * pool.workers(),
        "fixture must clear the spawn gate"
    );
    let seq = spec.run(&t).unwrap();
    assert_eq!(seq.rows(), &pooled_rows(&spec, &t, &pool)[..]);
    assert_eq!(
        fig4_baseline(&seq),
        seq.fig4_scratch(Some(&pool), &mut FusedScratch::default())
    );
}

/// What `tacc-stats-sim search` prints for a filter matching nothing,
/// and for a result whose metadata column is all `Null`: panels with no
/// finite value render as their title line, they do not panic.
#[test]
fn panels_without_values_render() {
    let row = |id: i64| (id, [Some(3600.0 * id as f64), Some(2.0), Some(60.0), None]);
    let t = jobs_table(&[row(1), row(2), row(3)]);

    let none = SearchSpec::default()
        .field("run_time__gte", 1e12)
        .run(&t)
        .expect("valid column");
    assert!(none.is_empty());
    let text = none.fig4().render();
    assert_eq!(text.lines().filter(|l| l.ends_with("(n = 0)")).count(), 4);

    let all = SearchSpec::default().run(&t).expect("empty filter");
    let text = all.fig4().render();
    assert!(text.contains("Jobs vs Runtime (h) (n = 3)"), "{text}");
    assert!(
        text.contains("Jobs vs Max Metadata Reqs (1/s) (n = 0)"),
        "{text}"
    );
    assert_eq!(all.fig4(), fig4_baseline(&all));
}
