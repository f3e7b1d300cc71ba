//! The scan index: typed column vectors kept beside a table's rows.
//!
//! Rows stay the storage a caller reads (`Table::rows`); the index is
//! derived data, appended on every insert, that filters and the portal's
//! Fig. 4 scan read instead of the boxed cells:
//!
//! * an Int, Float or Bool column keeps the [`Value::as_f64`] view of
//!   every cell (8 B, `0.0` under a null) plus one null bit;
//! * a Str column keeps one `u32` dictionary code per cell (4 B,
//!   [`NULL_CODE`] for a null) and stores each distinct string once.
//!
//! A predicate then reads one dense vector instead of chasing a row
//! pointer per cell, and a string predicate is evaluated once per
//! distinct string instead of once per row.

use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The code of a null Str cell. It is never a dictionary position, so a
/// per-entry table looked up with it misses.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// One bit per row.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    fn push(&mut self, at: usize, bit: bool) {
        if at.is_multiple_of(64) {
            self.words.push(0);
        }
        if let Some(w) = self.words.last_mut() {
            *w |= (bit as u64) << (at % 64);
        }
    }

    /// Bit `i`; rows past the end read as set.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_none_or(|w| (w >> (i % 64)) & 1 == 1)
    }
}

/// One column of the index (a table keeps one per schema column).
#[derive(Clone, Debug)]
pub(crate) enum ColumnIndex {
    /// Int, Float and Bool cells as `f64`, with their null bits.
    Num {
        /// `as_f64` of every cell, `0.0` under a null.
        vals: Vec<f64>,
        /// Set where the cell is null.
        nulls: Bitset,
        /// No cell so far sorts below the one before it (under
        /// [`cmp_num`]): true of the jobid column in ingest order.
        ascending: bool,
    },
    /// Str cells as dictionary codes.
    Str {
        /// Code of every cell, [`NULL_CODE`] for a null.
        codes: Vec<u32>,
        /// Each distinct string, once, to its code.
        dict: HashMap<Box<str>, u32>,
        /// The first row holding each code, by code: the cell a
        /// per-entry predicate is evaluated on.
        first_row: Vec<u32>,
    },
}

impl ColumnIndex {
    pub(crate) fn new(ty: ValueType) -> ColumnIndex {
        match ty {
            ValueType::Str => ColumnIndex::Str {
                codes: Vec::new(),
                dict: HashMap::new(),
                first_row: Vec::new(),
            },
            ValueType::Int | ValueType::Float | ValueType::Bool => ColumnIndex::Num {
                vals: Vec::new(),
                nulls: Bitset::default(),
                ascending: true,
            },
        }
    }

    /// Append the cell `v` of row number `row`.
    pub(crate) fn push(&mut self, row: usize, v: &Value) {
        match self {
            ColumnIndex::Num {
                vals,
                nulls,
                ascending,
            } => {
                let x = v.as_f64();
                if let Some(prev) = row.checked_sub(1) {
                    let last = NumColumn { vals, nulls }.get(prev);
                    *ascending &= cmp_num(last, x) != Ordering::Greater;
                }
                nulls.push(row, x.is_none());
                vals.push(x.unwrap_or(0.0));
            }
            ColumnIndex::Str {
                codes,
                dict,
                first_row,
            } => {
                let code = match v.as_str() {
                    None => NULL_CODE,
                    Some(s) => match dict.get(s) {
                        Some(&c) => c,
                        None => {
                            let c = first_row.len() as u32;
                            dict.insert(s.into(), c);
                            first_row.push(row as u32);
                            c
                        }
                    },
                };
                codes.push(code);
            }
        }
    }

    /// The typed view of a numeric column; `None` for a Str column.
    pub(crate) fn num(&self) -> Option<NumColumn<'_>> {
        match self {
            ColumnIndex::Num { vals, nulls, .. } => Some(NumColumn { vals, nulls }),
            ColumnIndex::Str { .. } => None,
        }
    }

    /// Is this a numeric column whose cells never decrease in row
    /// order?
    pub(crate) fn ascending(&self) -> bool {
        matches!(
            self,
            ColumnIndex::Num {
                ascending: true,
                ..
            }
        )
    }

    /// Is the cell of row `i` null?
    pub(crate) fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnIndex::Num { nulls, .. } => nulls.get(i),
            ColumnIndex::Str { codes, .. } => codes.get(i).is_none_or(|&c| c == NULL_CODE),
        }
    }
}

/// [`Value::total_cmp`] of two numeric cells by their `f64` views
/// (`None` for Null, which sorts lowest).
pub(crate) fn cmp_num(a: Option<f64>, b: Option<f64>) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (x, y) => x.is_some().cmp(&y.is_some()),
    }
}

/// A numeric column's typed view ([`crate::Table::num_column`]).
#[derive(Clone, Copy, Debug)]
pub struct NumColumn<'t> {
    vals: &'t [f64],
    nulls: &'t Bitset,
}

impl<'t> NumColumn<'t> {
    /// `rows()[i].get(col).as_f64()`, read from the index: `None` for a
    /// null cell or a row past the end.
    pub fn get(&self, i: usize) -> Option<f64> {
        if self.nulls.get(i) {
            return None;
        }
        self.vals.get(i).copied()
    }
}
