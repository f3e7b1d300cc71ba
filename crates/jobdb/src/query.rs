//! Queries: filters with Django-style suffixes, ordering, aggregation.
//!
//! The web portal (§IV-B) searches jobs "along any combination of
//! metadata and up to three Search fields, where a Search field consists
//! of one of the metric names from Table I plus a modifying suffix to
//! indicate the comparison operator". That suffix syntax
//! (`MetaDataRate__gte`) is exactly Django's, and the §V-B case study
//! uses ORM aggregation ("averaging a metric field over a returned job
//! list"). This module provides both.

use crate::index::{ColumnIndex, NumColumn};
use crate::table::{Row, Table, TableError};
use crate::value::{Value, ValueType};
use std::cmp::Ordering;

/// Comparison operators, with their Django-style suffix names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `__eq` (also the default with no suffix).
    Eq,
    /// `__ne`
    Ne,
    /// `__lt`
    Lt,
    /// `__lte`
    Lte,
    /// `__gt`
    Gt,
    /// `__gte`
    Gte,
    /// `__contains` (substring, string columns).
    Contains,
}

impl CmpOp {
    /// Parse a `column__op` keyword into `(column, op)`; a bare column
    /// name means equality.
    fn split_kw(kw: &str) -> (&str, CmpOp) {
        if let Some((col, suffix)) = kw.rsplit_once("__") {
            let op = match suffix {
                "eq" => CmpOp::Eq,
                "ne" => CmpOp::Ne,
                "lt" => CmpOp::Lt,
                "lte" => CmpOp::Lte,
                "gt" => CmpOp::Gt,
                "gte" => CmpOp::Gte,
                "contains" => CmpOp::Contains,
                _ => return (kw, CmpOp::Eq), // not a recognized suffix
            };
            (col, op)
        } else {
            (kw, CmpOp::Eq)
        }
    }

    /// Apply the comparison. Null never matches anything except `Ne`.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() {
            return self == CmpOp::Ne && !rhs.is_null();
        }
        match self {
            CmpOp::Contains => match (lhs.as_str(), rhs.as_str()) {
                (Some(a), Some(b)) => a.contains(b),
                _ => false,
            },
            _ => {
                let ord = lhs.total_cmp(rhs);
                match self {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Lte => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Gte => ord != Ordering::Less,
                    CmpOp::Contains => unreachable!(),
                }
            }
        }
    }
}

/// One predicate: `column op value`.
#[derive(Clone, Debug)]
pub struct Cond {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Comparison value.
    pub value: Value,
}

/// A conjunction of predicates (the portal combines up to three search
/// fields with AND).
#[derive(Clone, Debug, Default)]
pub struct Filter {
    conds: Vec<Cond>,
}

impl Filter {
    /// Empty filter (matches everything).
    pub fn new() -> Filter {
        Filter::default()
    }

    /// Add a predicate from a Django-style keyword.
    pub fn kw(mut self, keyword: &str, value: impl Into<Value>) -> Filter {
        let (column, op) = CmpOp::split_kw(keyword);
        self.conds.push(Cond {
            column: column.to_string(),
            op,
            value: value.into(),
        });
        self
    }

    /// The predicates.
    pub fn conds(&self) -> &[Cond] {
        &self.conds
    }

    /// Resolve every predicate against `table`'s scan index once (see
    /// [`CompiledFilter`]). An unknown column fails here, before any
    /// row is read.
    pub fn compile<'t>(&self, table: &'t Table) -> Result<CompiledFilter<'t>, TableError> {
        let preds = self
            .conds
            .iter()
            .map(|c| {
                table
                    .schema()
                    .index_of(&c.column)
                    .and_then(|col| Pred::resolve(table, col, c.op, &c.value))
                    .ok_or_else(|| TableError::NoSuchColumn(c.column.clone()))
            })
            .collect::<Result<_, _>>()?;
        Ok(CompiledFilter {
            rows: table.len(),
            preds,
        })
    }
}

/// The lowest and the highest `f64` under `f64::total_cmp` (a negative
/// and a positive NaN with every payload bit set).
const TOTAL_MIN: f64 = f64::from_bits(u64::MAX);
const TOTAL_MAX: f64 = f64::from_bits(i64::MAX as u64);

/// One predicate resolved against a column of the scan index. Every
/// answer it gives is one [`CmpOp::eval`] gave at compile time, so the
/// scan and the row-at-a-time definition cannot disagree:
/// * `on_null` is `eval(Null, rhs)`;
/// * a numeric cell `x` against a numeric `rhs` answers by where `x`
///   falls under `f64::total_cmp` (the rule `Value::total_cmp` applies
///   to numbers), from `eval` on a cell below, equal to and above `rhs`;
/// * a string cell against a string `rhs` answers from `eval` on the
///   first cell holding each distinct string;
/// * any other non-null cell answers `eval` on a representative value of
///   the column's type: a mismatched or Null `rhs` does not depend on it.
struct Pred<'t> {
    on_null: bool,
    test: Test<'t>,
}

enum Test<'t> {
    /// Every non-null cell gives the same answer.
    Const(&'t ColumnIndex, bool),
    /// The answer for cells below, equal to and above `rhs`.
    Num(NumColumn<'t>, f64, [bool; 3]),
    /// Dictionary codes and the answer for each code.
    Dict(&'t [u32], Vec<bool>),
}

impl<'t> Pred<'t> {
    fn resolve(table: &'t Table, col: usize, op: CmpOp, rhs: &Value) -> Option<Pred<'t>> {
        let index = table.column_index(col)?;
        let ty = table.schema().columns.get(col)?.ty;
        let test = match (index, rhs.as_f64(), rhs) {
            (ColumnIndex::Num { .. }, Some(y), _) => Test::Num(
                index.num()?,
                y,
                [TOTAL_MIN, y, TOTAL_MAX].map(|x| op.eval(&Value::Float(x), rhs)),
            ),
            (
                ColumnIndex::Str {
                    codes, first_row, ..
                },
                _,
                Value::Str(_),
            ) => Test::Dict(
                codes,
                first_row
                    .iter()
                    .map(|&r| op.eval(table.rows()[r as usize].get(col), rhs))
                    .collect(),
            ),
            _ => Test::Const(index, op.eval(&representative(ty), rhs)),
        };
        Some(Pred {
            on_null: op.eval(&Value::Null, rhs),
            test,
        })
    }

    /// Move the candidates that satisfy the predicate to the front of
    /// `cands`, in order, and return how many there are. The `Test` is
    /// matched once, outside the row loop.
    fn retain(&self, cands: &mut [u32]) -> usize {
        let on_null = self.on_null;
        match &self.test {
            Test::Const(index, c) => {
                compact(cands, |i| if index.is_null(i) { on_null } else { *c })
            }
            Test::Num(col, y, answer) => compact(cands, |i| match col.get(i) {
                Some(x) => answer[(x.total_cmp(y) as i8 + 1) as usize],
                None => on_null,
            }),
            Test::Dict(codes, answer) => compact(cands, |i| {
                codes
                    .get(i)
                    .and_then(|&c| answer.get(c as usize))
                    .copied()
                    .unwrap_or(on_null)
            }),
        }
    }
}

/// In-place compaction without a branch on the answer: every candidate
/// is written at the write position, which then advances by
/// `keep(candidate)` as 0 or 1. Returns the kept count.
fn compact(cands: &mut [u32], keep: impl Fn(usize) -> bool) -> usize {
    let mut w = 0;
    for r in 0..cands.len() {
        let i = cands[r];
        cands[w] = i;
        w += usize::from(keep(i as usize));
    }
    w
}

/// A non-null value of type `ty`.
fn representative(ty: ValueType) -> Value {
    match ty {
        ValueType::Int => Value::Int(0),
        ValueType::Float => Value::Float(0.0),
        ValueType::Str => Value::Str(String::new()),
        ValueType::Bool => Value::Bool(false),
    }
}

/// A [`Filter`] resolved against one table's scan index
/// ([`Filter::compile`]).
pub struct CompiledFilter<'t> {
    rows: usize,
    preds: Vec<Pred<'t>>,
}

impl CompiledFilter<'_> {
    /// Indices of the rows satisfying every predicate, ascending: every
    /// row is a candidate, and each predicate compacts the candidates
    /// in place. One allocation, whatever the row count.
    pub fn scan(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.rows);
        out.extend(0..self.rows as u32);
        let mut n = out.len();
        for p in &self.preds {
            n = p.retain(&mut out[..n]);
        }
        out.truncate(n);
        out.shrink_to_fit();
        out
    }
}

/// A query over one table. Build with [`Query::new`], chain filters and
/// ordering, then evaluate with [`Query::rows`] or an aggregate.
///
/// ```
/// use tacc_jobdb::{Database, Query, Table, TableSchema, Value, ValueType};
///
/// let mut db = Database::new();
/// db.create_table("jobs", TableSchema::new(&[
///     ("exec", ValueType::Str),
///     ("MetaDataRate", ValueType::Float),
/// ]));
/// db.insert("jobs", vec!["wrf.exe".into(), Value::Float(3900.0)]).unwrap();
/// db.insert("jobs", vec!["wrf.exe".into(), Value::Float(563905.0)]).unwrap();
///
/// let t = db.table("jobs").unwrap();
/// let storms = Query::new(t)
///     .filter_kw("exec", "wrf.exe")
///     .filter_kw("MetaDataRate__gte", 10_000.0)
///     .count()
///     .unwrap();
/// assert_eq!(storms, 1);
/// ```
pub struct Query<'t> {
    table: &'t Table,
    filter: Filter,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
}

impl<'t> Query<'t> {
    /// Query everything in `table`.
    pub fn new(table: &'t Table) -> Query<'t> {
        Query {
            table,
            filter: Filter::new(),
            order_by: None,
            limit: None,
        }
    }

    /// Add a Django-style predicate, e.g.
    /// `.filter_kw("MetaDataRate__gte", 10_000.0)`.
    pub fn filter_kw(mut self, keyword: &str, value: impl Into<Value>) -> Self {
        self.filter = self.filter.kw(keyword, value);
        self
    }

    /// Use a prebuilt filter (replaces any accumulated predicates).
    pub fn filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Sort by a column (`desc` = descending). Nulls sort first.
    pub fn order_by(mut self, column: &str, desc: bool) -> Self {
        self.order_by = Some((column.to_string(), desc));
        self
    }

    /// Keep at most `n` rows (after ordering).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Row indices of the matches, in order: the compiled scan, then a
    /// stable sort on the `order_by` column, then the limit.
    fn indices(&self) -> Result<Vec<u32>, TableError> {
        let mut idxs = self.filter.compile(self.table)?.scan();
        if let Some((col, desc)) = &self.order_by {
            let idx = self
                .table
                .schema()
                .index_of(col)
                .ok_or_else(|| TableError::NoSuchColumn(col.clone()))?;
            self.table.sort_by_column(idx, *desc, &mut idxs);
        }
        if let Some(n) = self.limit {
            idxs.truncate(n);
        }
        Ok(idxs)
    }

    /// Evaluate: matching rows in order.
    pub fn rows(&self) -> Result<Vec<&'t Row>, TableError> {
        let all = self.table.rows();
        Ok(self
            .indices()?
            .iter()
            .filter_map(|&i| all.get(i as usize))
            .collect())
    }

    /// Count matching rows.
    pub fn count(&self) -> Result<usize, TableError> {
        Ok(self.indices()?.len())
    }

    /// Collect one column of the matching rows.
    pub fn values(&self, column: &str) -> Result<Vec<Value>, TableError> {
        let idx = self
            .table
            .schema()
            .index_of(column)
            .ok_or_else(|| TableError::NoSuchColumn(column.to_string()))?;
        Ok(self.rows()?.iter().map(|r| r.get(idx).clone()).collect())
    }

    fn numeric(&self, column: &str) -> Result<Vec<f64>, TableError> {
        Ok(self
            .values(column)?
            .iter()
            .filter_map(|v| v.as_f64())
            .collect())
    }

    /// Mean of a numeric column over matching rows (nulls skipped).
    /// The §V-B workflow: "averaging a metric field over a returned job
    /// list".
    pub fn avg(&self, column: &str) -> Result<Option<f64>, TableError> {
        let v = self.numeric(column)?;
        if v.is_empty() {
            Ok(None)
        } else {
            Ok(Some(v.iter().sum::<f64>() / v.len() as f64))
        }
    }

    /// Sum of a numeric column.
    pub fn sum(&self, column: &str) -> Result<f64, TableError> {
        Ok(self.numeric(column)?.iter().sum())
    }

    /// Minimum of a numeric column.
    pub fn min(&self, column: &str) -> Result<Option<f64>, TableError> {
        Ok(self.numeric(column)?.into_iter().reduce(f64::min))
    }

    /// Maximum of a numeric column.
    pub fn max(&self, column: &str) -> Result<Option<f64>, TableError> {
        Ok(self.numeric(column)?.into_iter().reduce(f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableSchema;
    use crate::value::ValueType;
    use proptest::prelude::*;

    fn jobs() -> Table {
        let mut t = Table::new(TableSchema::new(&[
            ("jobid", ValueType::Str),
            ("user", ValueType::Str),
            ("exec", ValueType::Str),
            ("nodes", ValueType::Int),
            ("cpu_usage", ValueType::Float),
            ("metadatarate", ValueType::Float),
        ]));
        let rows: Vec<(&str, &str, &str, i64, f64, f64)> = vec![
            ("1", "alice", "wrf.exe", 16, 0.82, 3900.0),
            ("2", "bob", "wrf.exe", 4, 0.67, 563000.0),
            ("3", "alice", "namd2", 32, 0.95, 12.0),
            ("4", "carol", "python", 1, 0.93, 5.0),
            ("5", "bob", "wrf.exe", 4, 0.64, 580000.0),
        ];
        for (j, u, e, n, c, m) in rows {
            t.insert(vec![
                j.into(),
                u.into(),
                e.into(),
                Value::Int(n),
                Value::Float(c),
                Value::Float(m),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn suffix_parsing() {
        assert_eq!(
            CmpOp::split_kw("MetaDataRate__gte"),
            ("MetaDataRate", CmpOp::Gte)
        );
        assert_eq!(CmpOp::split_kw("user"), ("user", CmpOp::Eq));
        assert_eq!(CmpOp::split_kw("exec__contains"), ("exec", CmpOp::Contains));
        // Unknown suffix: treated as part of the name (Django would 400;
        // we fail later with NoSuchColumn).
        assert_eq!(CmpOp::split_kw("a__bogus"), ("a__bogus", CmpOp::Eq));
    }

    #[test]
    fn portal_style_search() {
        let t = jobs();
        // "all jobs running wrf.exe with MetaDataRate >= 10000"
        let rows = Query::new(&t)
            .filter_kw("exec", "wrf.exe")
            .filter_kw("metadatarate__gte", 10_000.0)
            .rows()
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn ordering_and_limit() {
        let t = jobs();
        let rows = Query::new(&t)
            .order_by("cpu_usage", true)
            .limit(2)
            .rows()
            .unwrap();
        assert_eq!(rows[0].get(0), &Value::Str("3".into()));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let t = jobs();
        let q = Query::new(&t).filter_kw("user", "bob");
        assert_eq!(q.count().unwrap(), 2);
        let avg = q.avg("cpu_usage").unwrap().unwrap();
        assert!((avg - 0.655).abs() < 1e-12);
        assert_eq!(q.min("nodes").unwrap(), Some(4.0));
        assert_eq!(q.max("metadatarate").unwrap(), Some(580000.0));
        assert_eq!(q.sum("nodes").unwrap(), 8.0);
    }

    #[test]
    fn contains_and_ne() {
        let t = jobs();
        assert_eq!(
            Query::new(&t)
                .filter_kw("exec__contains", "wrf")
                .count()
                .unwrap(),
            3
        );
        assert_eq!(
            Query::new(&t).filter_kw("user__ne", "bob").count().unwrap(),
            3
        );
    }

    #[test]
    fn compiled_scan_returns_ascending_row_indices() {
        let t = jobs();
        let f = Filter::new()
            .kw("exec", "wrf.exe")
            .kw("metadatarate__gte", 10_000.0);
        assert_eq!(f.compile(&t).unwrap().scan(), vec![1, 4]);
        assert_eq!(
            Filter::new().compile(&t).unwrap().scan(),
            vec![0, 1, 2, 3, 4]
        );
        // Bad columns fail at compile time, not per row.
        assert!(matches!(
            Filter::new().kw("ghost__gte", 1.0).compile(&t),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn mismatched_right_hand_sides_follow_eval() {
        let t = jobs();
        let n = |kw: &str, v: Value| Query::new(&t).filter_kw(kw, v).count().unwrap();
        // A string sorts above every number, and every value above Null.
        assert_eq!(n("nodes__lt", "4".into()), 5);
        assert_eq!(n("user__gt", Value::Int(7)), 5);
        assert_eq!(n("cpu_usage__ne", Value::Null), 5);
        assert_eq!(n("cpu_usage__eq", Value::Null), 0);
        assert_eq!(n("nodes__contains", "4".into()), 0);
        // Int cells against a Float threshold compare numerically.
        assert_eq!(n("nodes__gte", Value::Float(15.5)), 2);
    }

    #[test]
    fn unknown_column_errors() {
        let t = jobs();
        assert!(matches!(
            Query::new(&t).filter_kw("ghost__gte", 1.0).rows(),
            Err(TableError::NoSuchColumn(_))
        ));
        assert!(Query::new(&t).avg("ghost").is_err());
        assert!(Query::new(&t).order_by("ghost", false).rows().is_err());
    }

    #[test]
    fn null_semantics() {
        let mut t = Table::new(TableSchema::new(&[("x", ValueType::Float)]));
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Float(1.0)]).unwrap();
        // Null matches nothing except __ne.
        assert_eq!(Query::new(&t).filter_kw("x__gte", 0.0).count().unwrap(), 1);
        assert_eq!(Query::new(&t).filter_kw("x__ne", 0.0).count().unwrap(), 2);
        // avg skips nulls.
        assert_eq!(Query::new(&t).avg("x").unwrap(), Some(1.0));
    }

    proptest! {
        /// Filters commute: A then B selects the same rows as B then A.
        #[test]
        fn filter_order_is_irrelevant(
            vals in proptest::collection::vec((0i64..100, 0.0f64..1.0), 1..60),
            ta in 0i64..100,
            tb in 0.0f64..1.0,
        ) {
            let mut t = Table::new(TableSchema::new(&[
                ("a", ValueType::Int),
                ("b", ValueType::Float),
            ]));
            for (a, b) in vals {
                t.insert(vec![Value::Int(a), Value::Float(b)]).unwrap();
            }
            let ab = Query::new(&t)
                .filter_kw("a__gte", ta)
                .filter_kw("b__lt", tb)
                .rows().unwrap();
            let ba = Query::new(&t)
                .filter_kw("b__lt", tb)
                .filter_kw("a__gte", ta)
                .rows().unwrap();
            prop_assert_eq!(ab, ba);
        }

        /// count(P) + count(!P) == total for threshold predicates on
        /// non-null data.
        #[test]
        fn complementary_predicates_partition(
            vals in proptest::collection::vec(0.0f64..1.0, 0..60),
            thr in 0.0f64..1.0,
        ) {
            let mut t = Table::new(TableSchema::new(&[("x", ValueType::Float)]));
            let total = vals.len();
            for v in vals {
                t.insert(vec![Value::Float(v)]).unwrap();
            }
            let ge = Query::new(&t).filter_kw("x__gte", thr).count().unwrap();
            let lt = Query::new(&t).filter_kw("x__lt", thr).count().unwrap();
            prop_assert_eq!(ge + lt, total);
        }
    }
}
