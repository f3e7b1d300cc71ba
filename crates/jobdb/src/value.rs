//! Typed values and the persistence escaping rules.

use std::cmp::Ordering;
use std::fmt;

/// The column types the job database needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (timestamps, counts, node numbers).
    Int,
    /// 64-bit float (all Table I metrics).
    Float,
    /// UTF-8 string (user, executable, queue, status).
    Str,
    /// Boolean (flags).
    Bool,
}

impl ValueType {
    /// Name used in persisted schemas.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
            ValueType::Bool => "bool",
        }
    }

    /// Inverse of [`ValueType::name`].
    pub fn parse(s: &str) -> Option<ValueType> {
        Some(match s {
            "int" => ValueType::Int,
            "float" => ValueType::Float,
            "str" => ValueType::Str,
            "bool" => ValueType::Bool,
            _ => return None,
        })
    }
}

/// A single cell value. `Null` is permitted in any column (metrics can be
/// missing — e.g. MIC metrics on nodes without a Phi).
#[derive(Clone, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Missing.
    Null,
}

impl Value {
    /// The value's type (None for Null).
    pub fn type_of(&self) -> Option<ValueType> {
        Some(match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
            Value::Null => return None,
        })
    }

    /// Numeric view (ints and floats; bools as 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if Null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering for sorting and comparisons: Null sorts lowest;
    /// numerics compare numerically across Int/Float; mixed non-numeric
    /// types compare by type rank (a schema violation that we keep total
    /// anyway so sorts never panic).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => match (a, b) {
                    (Str(x), Str(y)) => x.cmp(y),
                    _ => rank(a).cmp(&rank(b)),
                },
            },
        }
    }

    /// Escape for the tab-separated persistence format.
    pub fn render(&self) -> String {
        match self {
            Value::Int(i) => format!("i{i}"),
            // {:?} prints floats with enough precision to round-trip,
            // but every NaN as `NaN`: keep the bits of any other than
            // the canonical one, so that `total_cmp` still finds the
            // parsed value equal.
            Value::Float(f) if f.is_nan() && f.to_bits() != f64::NAN.to_bits() => {
                format!("fNaN:{:x}", f.to_bits())
            }
            Value::Float(f) => format!("f{f:?}"),
            Value::Str(s) => format!("s{}", escape(s)),
            Value::Bool(b) => format!("b{}", if *b { 1 } else { 0 }),
            Value::Null => "n".to_string(),
        }
    }

    /// Inverse of [`Value::render`].
    pub fn parse(s: &str) -> Option<Value> {
        let mut chars = s.chars();
        let tag = chars.next()?;
        let rest = chars.as_str();
        Some(match tag {
            'i' => Value::Int(rest.parse().ok()?),
            'f' => Value::Float(match rest.strip_prefix("NaN:") {
                Some(bits) => Some(f64::from_bits(u64::from_str_radix(bits, 16).ok()?))
                    .filter(|x| x.is_nan())?,
                None => rest.parse().ok()?,
            }),
            's' => Value::Str(unescape(rest)?),
            'b' => Value::Bool(match rest {
                "1" => true,
                "0" => false,
                _ => return None,
            }),
            'n' if rest.is_empty() => Value::Null,
            _ => return None,
        })
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "∅"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn render_parse_roundtrip_basics() {
        for v in [
            Value::Int(-42),
            Value::Float(3.25),
            Value::Float(f64::MAX),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(-0.0),
            Value::Str("wrf.exe".into()),
            Value::Str("tabs\tand\nnewlines\\".into()),
            Value::Bool(true),
            Value::Null,
        ] {
            let r = v.render();
            assert_eq!(Value::parse(&r), Some(v.clone()), "{r}");
        }
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert!(Value::Null.total_cmp(&Value::Int(i64::MIN)) == Ordering::Less);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Value::parse(""), None);
        assert_eq!(Value::parse("ix"), None);
        assert_eq!(Value::parse("b2"), None);
        assert_eq!(Value::parse("nx"), None);
        assert_eq!(Value::parse("s\\q"), None);
        assert_eq!(Value::parse("qfoo"), None);
        assert_eq!(Value::parse("fNaN:0"), None, "the bits must be a NaN");
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_strings(s in ".*") {
            let v = Value::Str(s);
            prop_assert_eq!(Value::parse(&v.render()), Some(v));
        }

        #[test]
        fn roundtrip_arbitrary_floats(x in proptest::num::f64::ANY) {
            let v = Value::Float(x);
            match Value::parse(&v.render()) {
                Some(Value::Float(y)) => {
                    if x.is_nan() {
                        prop_assert!(y.is_nan());
                    } else {
                        prop_assert_eq!(x, y);
                    }
                }
                other => prop_assert!(false, "got {other:?}"),
            }
        }

        #[test]
        fn total_cmp_is_total_and_antisymmetric(a in -1000i64..1000, b in -1000i64..1000) {
            let va = Value::Int(a);
            let vb = Value::Int(b);
            prop_assert_eq!(va.total_cmp(&vb), vb.total_cmp(&va).reverse());
        }
    }
}
