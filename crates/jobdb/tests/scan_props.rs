//! Differential property tests for the column scan: a filter compiled
//! against a table's scan index must select exactly the rows the
//! row-at-a-time definition selects — every predicate's
//! [`CmpOp::eval`] on the row's cell — for any table and any predicates.
//!
//! Tables mix Int, Float, Str and Bool columns with Null cells and every
//! float class (NaN of either sign, ±0.0, ±inf). Predicates use every
//! operator against right-hand sides of every type, matched or not.

use proptest::prelude::*;
use tacc_jobdb::{CmpOp, Filter, Query, Table, TableSchema, Value, ValueType};

/// The table's columns, in schema order.
const COLUMNS: [(&str, ValueType); 5] = [
    ("i", ValueType::Int),
    ("f", ValueType::Float),
    ("s", ValueType::Str),
    ("b", ValueType::Bool),
    ("g", ValueType::Float),
];

/// Every operator, with its keyword suffix.
const OPS: [(CmpOp, &str); 7] = [
    (CmpOp::Eq, "eq"),
    (CmpOp::Ne, "ne"),
    (CmpOp::Lt, "lt"),
    (CmpOp::Lte, "lte"),
    (CmpOp::Gt, "gt"),
    (CmpOp::Gte, "gte"),
    (CmpOp::Contains, "contains"),
];

/// A generated value: a selector plus one draw of each type's payload.
type RawValue = (u8, i64, f64, String);

/// Floats from the classes a comparison can trip on, and small integers
/// so that Int and Float cells tie.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        -3.0f64..3.0,
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn raw_value() -> impl Strategy<Value = RawValue> {
    (0u8..10, -2i64..3, float(), "[ab]{0,2}")
}

/// A cell of type `ty`, Null for selector 0.
fn cell(ty: ValueType, raw: &RawValue) -> Value {
    let (sel, i, f, s) = raw;
    if *sel == 0 {
        return Value::Null;
    }
    match ty {
        ValueType::Int => Value::Int(*i),
        ValueType::Float => Value::Float(*f),
        ValueType::Str => Value::Str(s.clone()),
        ValueType::Bool => Value::Bool(i % 2 == 0),
    }
}

/// A right-hand side of any type: the selector picks it.
fn rhs(raw: &RawValue) -> Value {
    let (sel, i, f, s) = raw;
    match sel % 5 {
        0 => Value::Null,
        1 => Value::Int(*i),
        2 => Value::Float(*f),
        3 => Value::Str(s.clone()),
        _ => Value::Bool(i % 2 == 0),
    }
}

type RawRow = ((RawValue, RawValue), (RawValue, RawValue), RawValue);
type RawCond = (usize, usize, RawValue);

fn raw_rows(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    raw_rows_in(0..max)
}

fn raw_rows_in(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec(
        (
            (raw_value(), raw_value()),
            (raw_value(), raw_value()),
            raw_value(),
        ),
        len,
    )
}

fn raw_conds() -> impl Strategy<Value = Vec<RawCond>> {
    raw_conds_in(0..4)
}

fn raw_conds_in(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawCond>> {
    proptest::collection::vec((0..COLUMNS.len(), 0..OPS.len(), raw_value()), len)
}

fn table(raw: &[RawRow]) -> Table {
    let schema: Vec<(&str, ValueType)> = COLUMNS.to_vec();
    let mut t = Table::new(TableSchema::new(&schema));
    for ((a, b), (c, d), e) in raw {
        let cells = [a, b, c, d, e];
        t.insert(
            COLUMNS
                .iter()
                .zip(cells)
                .map(|((_, ty), raw)| cell(*ty, raw))
                .collect(),
        )
        .expect("schema-shaped row");
    }
    t
}

/// One predicate: column index, operator, right-hand side.
struct Cond {
    idx: usize,
    op: CmpOp,
    value: Value,
}

fn conds(raw: &[RawCond]) -> Vec<Cond> {
    raw.iter()
        .map(|(col, op, v)| Cond {
            idx: *col,
            op: OPS[*op].0,
            value: rhs(v),
        })
        .collect()
}

fn filter(conds: &[Cond]) -> Filter {
    conds.iter().fold(Filter::new(), |f, c| {
        let (name, _) = COLUMNS[c.idx];
        let suffix = OPS.iter().find(|(op, _)| *op == c.op).expect("listed").1;
        f.kw(&format!("{name}__{suffix}"), c.value.clone())
    })
}

/// The row-at-a-time oracle.
fn oracle(t: &Table, conds: &[Cond]) -> Vec<u32> {
    t.rows()
        .iter()
        .enumerate()
        .filter(|(_, r)| conds.iter().all(|c| c.op.eval(r.get(c.idx), &c.value)))
        .map(|(i, _)| i as u32)
        .collect()
}

fn check(raw: &[RawRow], raw_conds: &[RawCond]) -> Result<(), String> {
    let t = table(raw);
    let conds = conds(raw_conds);
    let want = oracle(&t, &conds);
    let f = filter(&conds);
    let got = f.compile(&t).map_err(|e| e.to_string())?.scan();
    prop_assert_eq!(&got, &want);
    let rows = Query::new(&t).filter(f).rows().map_err(|e| e.to_string())?;
    let all = t.rows();
    let want_rows: Vec<_> = want.iter().map(|&i| &all[i as usize]).collect();
    prop_assert_eq!(rows, want_rows);
    Ok(())
}

proptest! {
    /// Small tables: every operator against every right-hand side type.
    #[test]
    fn column_scan_equals_row_at_a_time_eval(raw in raw_rows(40), conds in raw_conds()) {
        check(&raw, &conds)?;
    }

    /// Tables past one null-bitset word, so rows beyond 64 are read.
    #[test]
    fn column_scan_equals_row_at_a_time_eval_past_one_word(
        raw in raw_rows(200),
        conds in raw_conds(),
    ) {
        check(&raw, &conds)?;
    }

    /// Three-predicate conjunctions over tables past one null-bitset
    /// word: each predicate compacts the survivors of the one before in
    /// place, over a candidate list longer than a word.
    #[test]
    fn three_predicates_compact_in_place_past_one_word(
        raw in raw_rows_in(65..200),
        conds in raw_conds_in(3..4),
    ) {
        check(&raw, &conds)?;
    }

    /// `order_by` over the index sorts the matches as the rows' own
    /// `Value::total_cmp` does, stably, in both directions.
    #[test]
    fn order_by_equals_a_stable_sort_of_the_rows(
        raw in raw_rows(80),
        col in 0..COLUMNS.len(),
        desc in any::<bool>(),
    ) {
        let t = table(&raw);
        let (name, _) = COLUMNS[col];
        let got = Query::new(&t).order_by(name, desc).rows().map_err(|e| e.to_string())?;
        let mut want: Vec<_> = t.rows().iter().collect();
        want.sort_by(|a, b| {
            let ord = a.get(col).total_cmp(b.get(col));
            if desc { ord.reverse() } else { ord }
        });
        prop_assert_eq!(got, want);
    }

    /// The same on a table inserted in `i` order (Nulls first), where
    /// the index knows the column never decreases, under a filter.
    #[test]
    fn order_by_an_ascending_column_equals_a_stable_sort_of_the_rows(
        raw in raw_rows(80),
        raw_conds in raw_conds(),
        desc in any::<bool>(),
    ) {
        let mut raw = raw;
        raw.sort_by(|x, y| cell(ValueType::Int, &x.0 .0).total_cmp(&cell(ValueType::Int, &y.0 .0)));
        let t = table(&raw);
        let conds = conds(&raw_conds);
        let got = Query::new(&t)
            .filter(filter(&conds))
            .order_by("i", desc)
            .rows()
            .map_err(|e| e.to_string())?;
        let all = t.rows();
        let mut want: Vec<_> = oracle(&t, &conds).iter().map(|&i| &all[i as usize]).collect();
        want.sort_by(|a, b| {
            let ord = a.get(0).total_cmp(b.get(0));
            if desc { ord.reverse() } else { ord }
        });
        prop_assert_eq!(got, want);
    }
}

#[test]
fn every_operator_on_every_pairing_of_types() {
    // One row per (column type, cell class), and every rhs class.
    let raws: Vec<RawValue> = vec![
        (0, 0, 0.0, String::new()),
        (1, -1, f64::NAN, "a".into()),
        (1, 0, -0.0, "ab".into()),
        (1, 1, 0.0, String::new()),
        (1, 2, f64::NEG_INFINITY, "b".into()),
        (1, 1, 1.0, "ba".into()),
    ];
    let rows: Vec<RawRow> = raws
        .iter()
        .map(|r| ((r.clone(), r.clone()), (r.clone(), r.clone()), r.clone()))
        .collect();
    for col in 0..COLUMNS.len() {
        for op in 0..OPS.len() {
            for sel in 0..5u8 {
                for r in &raws {
                    let cond = (col, op, (sel, r.1, r.2, r.3.clone()));
                    if let Err(e) = check(&rows, &[cond]) {
                        panic!("column {col} op {op} rhs class {sel} value {r:?}: {e}");
                    }
                }
            }
        }
    }
}
