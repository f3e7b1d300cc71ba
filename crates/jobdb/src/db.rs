//! The database: named tables plus text persistence.

use crate::table::{Table, TableError, TableSchema};
use crate::value::{Value, ValueType};
use std::collections::BTreeMap;
use std::fmt;

/// A named collection of tables with a persistable text form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

/// Error from [`Database::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct DbParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DbParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "db parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DbParseError {}

impl Database {
    /// New empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table. Replaces any existing table of the same name.
    pub fn create_table(&mut self, name: &str, schema: TableSchema) {
        self.tables.insert(name.to_string(), Table::new(schema));
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Insert a row into a named table.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), TableError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| TableError::NoSuchColumn(format!("table {table}")))?
            .insert(values)
    }

    /// Render to the persistence text format:
    ///
    /// ```text
    /// #table jobs
    /// #schema jobid:str user:str nodes:int
    /// s1001<TAB>salice<TAB>i16
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, table) in &self.tables {
            out.push_str(&format!("#table {name}\n#schema"));
            for c in &table.schema().columns {
                out.push_str(&format!(" {}:{}", c.name, c.ty.name()));
            }
            out.push('\n');
            for row in table.rows() {
                for (i, v) in row.0.iter().enumerate() {
                    if i > 0 {
                        out.push('\t');
                    }
                    out.push_str(&v.render());
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parse a rendered database.
    pub fn parse(text: &str) -> Result<Database, DbParseError> {
        let err = |line: usize, message: &str| DbParseError {
            line,
            message: message.to_string(),
        };
        let mut db = Database::new();
        let mut current: Option<String> = None;
        let mut want_schema = false;
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("#table ") {
                current = Some(name.to_string());
                want_schema = true;
                continue;
            }
            if let Some(body) = line.strip_prefix("#schema") {
                let name = current
                    .clone()
                    .ok_or_else(|| err(lineno, "#schema before #table"))?;
                if !want_schema {
                    return Err(err(lineno, "duplicate #schema"));
                }
                let mut cols = Vec::new();
                for tok in body.split_whitespace() {
                    let (cname, ctype) = tok
                        .split_once(':')
                        .ok_or_else(|| err(lineno, "malformed column"))?;
                    let ty = ValueType::parse(ctype)
                        .ok_or_else(|| err(lineno, &format!("bad type {ctype}")))?;
                    cols.push((cname, ty));
                }
                let pairs: Vec<(&str, ValueType)> = cols;
                db.create_table(&name, TableSchema::new(&pairs));
                want_schema = false;
                continue;
            }
            let name = current
                .clone()
                .ok_or_else(|| err(lineno, "row before #table"))?;
            if want_schema {
                return Err(err(lineno, "row before #schema"));
            }
            let values: Option<Vec<Value>> = line.split('\t').map(Value::parse).collect();
            let values = values.ok_or_else(|| err(lineno, "bad value"))?;
            db.insert(&name, values)
                .map_err(|e| err(lineno, &e.to_string()))?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "jobs",
            TableSchema::new(&[
                ("jobid", ValueType::Str),
                ("nodes", ValueType::Int),
                ("cpu", ValueType::Float),
                ("ok", ValueType::Bool),
            ]),
        );
        db.insert(
            "jobs",
            vec![
                "a\tb".into(),
                Value::Int(4),
                Value::Float(0.5),
                Value::Bool(true),
            ],
        )
        .unwrap();
        db.insert(
            "jobs",
            vec!["j2".into(), Value::Int(1), Value::Null, Value::Bool(false)],
        )
        .unwrap();
        db.create_table("empty", TableSchema::new(&[("x", ValueType::Int)]));
        db
    }

    #[test]
    fn render_parse_roundtrip() {
        let db = sample_db();
        let text = db.render();
        let parsed = Database::parse(&text).unwrap();
        assert_eq!(parsed, db);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Database::parse("row-without-table").is_err());
        assert!(Database::parse("#table t\nrow-before-schema").is_err());
        assert!(Database::parse("#schema a:int").is_err());
        assert!(Database::parse("#table t\n#schema a:whatever").is_err());
        assert!(Database::parse("#table t\n#schema a:int\nnotavalue").is_err());
    }

    #[test]
    fn insert_into_missing_table_errors() {
        let mut db = Database::new();
        assert!(db.insert("ghost", vec![Value::Int(1)]).is_err());
    }

    proptest! {
        /// Arbitrary string/float/int content round-trips through the
        /// persistence format (including tabs and newlines in strings).
        #[test]
        fn roundtrip_arbitrary_rows(
            rows in proptest::collection::vec((".*", any::<i64>(), 0.0f64..1e12), 0..25)
        ) {
            let mut db = Database::new();
            db.create_table("t", TableSchema::new(&[
                ("s", ValueType::Str),
                ("i", ValueType::Int),
                ("f", ValueType::Float),
            ]));
            for (s, i, f) in rows {
                db.insert("t", vec![s.into(), Value::Int(i), Value::Float(f)]).unwrap();
            }
            let parsed = Database::parse(&db.render()).unwrap();
            prop_assert_eq!(parsed, db);
        }
    }
}
