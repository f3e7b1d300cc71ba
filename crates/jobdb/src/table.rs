//! Tables: declared schemas and typed rows, with the scan index
//! ([`crate::index`]) kept beside the rows.

use crate::index::{cmp_num, ColumnIndex, NumColumn};
use crate::value::{Value, ValueType};
use std::cmp::Ordering;

/// One column: name plus declared type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (e.g. `MetaDataRate`).
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: &str, ty: ValueType) -> Column {
        Column {
            name: name.to_string(),
            ty,
        }
    }
}

/// Ordered column list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Build from (name, type) pairs.
    pub fn new(cols: &[(&str, ValueType)]) -> TableSchema {
        TableSchema {
            columns: cols.iter().map(|(n, t)| Column::new(n, *t)).collect(),
        }
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A row of values in schema order.
#[derive(Clone, Debug, PartialEq)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Value at column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Errors from table mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum TableError {
    /// Row arity differs from schema arity.
    ArityMismatch {
        /// Values provided.
        got: usize,
        /// Columns declared.
        want: usize,
    },
    /// Non-null value of the wrong type for its column.
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// Declared type.
        want: ValueType,
    },
    /// Unknown column name in a query.
    NoSuchColumn(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::ArityMismatch { got, want } => {
                write!(f, "row has {got} values, schema has {want} columns")
            }
            TableError::TypeMismatch { column, want } => {
                write!(f, "column {column} expects {}", want.name())
            }
            TableError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
        }
    }
}

impl std::error::Error for TableError {}

/// A typed table.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Row>,
    /// The scan index, one column per schema column: derived from
    /// `rows` on insert, not part of the table's value.
    index: Vec<ColumnIndex>,
}

/// Schema and rows only: the index is derived from them (and an
/// `f64`-wise comparison of it would make a table holding NaN unequal
/// to itself).
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Table {
    /// New empty table.
    pub fn new(schema: TableSchema) -> Table {
        let index = schema
            .columns
            .iter()
            .map(|c| ColumnIndex::new(c.ty))
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            index,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Validate and insert a row.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<(), TableError> {
        if values.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                got: values.len(),
                want: self.schema.len(),
            });
        }
        for (v, c) in values.iter().zip(&self.schema.columns) {
            if let Some(t) = v.type_of() {
                if t != c.ty {
                    return Err(TableError::TypeMismatch {
                        column: c.name.clone(),
                        want: c.ty,
                    });
                }
            }
        }
        for (col, v) in self.index.iter_mut().zip(&values) {
            col.push(self.rows.len(), v);
        }
        self.rows.push(Row(values));
        Ok(())
    }

    /// The scan index column of `col`.
    pub(crate) fn column_index(&self, col: usize) -> Option<&ColumnIndex> {
        self.index.get(col)
    }

    /// The typed view of column `col` if it is an Int, Float or Bool
    /// column: what a scan reads instead of `rows()[i].get(col)`.
    pub fn num_column(&self, col: usize) -> Option<NumColumn<'_>> {
        self.column_index(col)?.num()
    }

    /// Stably sort row indices by column `col` under
    /// [`Value::total_cmp`] (descending if `desc`), leaving them as they
    /// are when they already are in that order. Ascending indices into a
    /// numeric column whose cells never decrease (a jobid column in
    /// ingest order) are known to be in order without comparing a cell.
    pub fn sort_by_column(&self, col: usize, desc: bool, idxs: &mut [u32]) {
        let index = self.column_index(col);
        if !desc && index.is_some_and(ColumnIndex::ascending) && idxs.is_sorted() {
            return;
        }
        let num = index.and_then(ColumnIndex::num);
        let asc = |a: &u32, b: &u32| match num {
            Some(num) => cmp_num(num.get(*a as usize), num.get(*b as usize)),
            None => {
                let cell = |i: &u32| self.rows.get(*i as usize).map(|r| r.get(col));
                match (cell(a), cell(b)) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    (x, y) => x.is_some().cmp(&y.is_some()),
                }
            }
        };
        let cmp = |a: &u32, b: &u32| if desc { asc(b, a) } else { asc(a, b) };
        if !idxs.is_sorted_by(|a, b| cmp(a, b) != Ordering::Greater) {
            idxs.sort_by(cmp);
        }
    }

    /// Value of `column` in row `row_idx`.
    pub fn value(&self, row_idx: usize, column: &str) -> Option<&Value> {
        let c = self.schema.index_of(column)?;
        self.rows.get(row_idx).map(|r| r.get(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_schema() -> TableSchema {
        TableSchema::new(&[
            ("jobid", ValueType::Str),
            ("nodes", ValueType::Int),
            ("cpu_usage", ValueType::Float),
        ])
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = Table::new(jobs_schema());
        assert!(t
            .insert(vec!["1".into(), Value::Int(4), Value::Float(0.8)])
            .is_ok());
        assert_eq!(
            t.insert(vec!["1".into(), Value::Int(4)]),
            Err(TableError::ArityMismatch { got: 2, want: 3 })
        );
        assert!(matches!(
            t.insert(vec!["1".into(), Value::Float(4.0), Value::Float(0.8)]),
            Err(TableError::TypeMismatch { .. })
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nulls_allowed_in_any_column() {
        let mut t = Table::new(jobs_schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert!(t.value(0, "cpu_usage").unwrap().is_null());
    }

    #[test]
    fn value_lookup_by_name() {
        let mut t = Table::new(jobs_schema());
        t.insert(vec!["42".into(), Value::Int(8), Value::Float(0.5)])
            .unwrap();
        assert_eq!(t.value(0, "nodes"), Some(&Value::Int(8)));
        assert_eq!(t.value(0, "ghost"), None);
        assert_eq!(t.value(9, "nodes"), None);
    }
}
