//! Property tests for the fused portal query engine: the fused Fig. 4
//! scan must be **bit-identical** to the pre-fused per-column pipeline
//! for any input, and `matched_indices` must return the matching rows
//! in stable jobid order — including on tables whose rows are *not* in
//! jobid order (the stable-sort step).

use proptest::prelude::*;
use tacc_jobdb::table::{Row, Table};
use tacc_jobdb::{TableSchema, Value, ValueType};
use tacc_portal::{Fig4Panels, JobList, SearchSpec};

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

fn assert_fig4_eq(rows: &[JobRow]) {
    let t = jobs_table(rows);
    let list = SearchSpec::default().run(&t).expect("empty filter");
    assert_eq!(list.fig4(), fig4_baseline(&list), "fused != baseline");
}

/// The oracle of the search order: the rows whose `MetaDataRate` is at
/// least `threshold` under the table's total order (Null below every
/// number, NaN above), stably sorted by jobid.
fn stable_sorted_matches(t: &Table, threshold: f64) -> Vec<&Row> {
    let min = Value::Float(threshold);
    let mut want: Vec<&Row> = t
        .rows()
        .iter()
        .filter(|r| r.get(4).total_cmp(&min).is_ge())
        .collect();
    want.sort_by_key(|r| r.get(0).as_i64());
    want
}

proptest! {
    /// Fused Fig. 4 == per-column baseline, bit for bit, over values
    /// including NaN/inf/Null.
    #[test]
    fn fused_fig4_matches_baseline(raw in raw_rows(120)) {
        assert_fig4_eq(&decode_rows(&raw));
    }

    /// `matched_indices` returns the matching rows stably sorted by
    /// jobid, on jobid-ordered tables and on shuffled ones, with a real
    /// filter in play. Jobids are drawn from 0..500, so longer tables
    /// carry ties the stable sort must keep in table order.
    #[test]
    fn search_returns_matches_in_stable_jobid_order(
        raw in raw_rows(120),
        shuffle_seed in 0u64..1000,
        threshold in -1e6f64..1e6,
    ) {
        let mut rows = decode_rows(&raw);
        // Deterministic shuffle so half the inputs exercise the
        // stable sort.
        let n = rows.len();
        if shuffle_seed % 2 == 1 && n > 0 {
            for i in 0..n {
                let j = ((shuffle_seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
                rows.swap(i, j);
            }
        }
        let t = jobs_table(&rows);
        let spec = SearchSpec::default().field("MetaDataRate__gte", threshold);
        let seq = spec.run(&t).expect("valid column");
        prop_assert_eq!(seq.rows(), &stable_sorted_matches(&t, threshold)[..]);
    }
}

#[test]
fn fused_fig4_edge_cases() {
    // Empty result set.
    assert_fig4_eq(&[]);
    // Single row.
    assert_fig4_eq(&[(1, [Some(3600.0), Some(2.0), Some(60.0), Some(10.0)])]);
    // All-NaN and all-Null columns.
    assert_fig4_eq(&[
        (1, [Some(f64::NAN), None, Some(f64::NAN), None]),
        (2, [Some(f64::NAN), None, Some(f64::NAN), None]),
    ]);
    // All-equal values (degenerate extent: hi == lo, width = 1.0).
    let row = [Some(7200.0), Some(4.0), Some(120.0), Some(500.0)];
    assert_fig4_eq(&[(1, row), (2, row), (3, row)]);
    // Negative and zero values through the log panel's 1e-9 clamp.
    assert_fig4_eq(&[
        (1, [Some(10.0), Some(1.0), Some(0.0), Some(-5.0)]),
        (2, [Some(20.0), Some(2.0), Some(1.0), Some(0.0)]),
        (3, [Some(30.0), Some(3.0), Some(2.0), Some(1e9)]),
    ]);
}

/// A shuffled table whose jobids come in pairs: the search must hold
/// tied rows in table order, and the fused panels of the result must
/// match the baseline.
#[test]
fn shuffled_paired_jobids_sort_stably() {
    let n = 2_000;
    // 7919 is prime and does not divide n, so `i * 7919 % n` permutes
    // 0..n; halving it gives every jobid to two rows.
    let rows: Vec<JobRow> = (0..n)
        .map(|i| {
            let f = i as f64;
            (
                ((i * 7919) % n / 2) as i64,
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
    let seq = spec.run(&t).expect("valid column");
    let want = stable_sorted_matches(&t, 10_000.0);
    assert!(want.len() > n / 2, "most rows match");
    assert_eq!(seq.rows(), &want[..]);
    assert_eq!(seq.fig4(), fig4_baseline(&seq));
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
