//! A dependency-free JSON emitter for `spc_audit`'s findings artifact.
//!
//! The offline build has no `serde`/`serde_json`; this is a tiny value
//! tree ([`Value`]), a conversion trait ([`ToJson`]) and the
//! [`crate::json_object!`] macro that stamps out field-by-field struct
//! impls (the moral equivalent of `#[derive(Serialize)]`).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i128),
    /// A float (non-finite values are emitted as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Object(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Value`] tree.
pub trait ToJson {
    /// The JSON view of `self`.
    fn to_json(&self) -> Value;
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
    )*};
}

impl_to_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct with public fields, field by field —
/// the stand-in for `#[derive(Serialize)]` on record structs.
#[macro_export]
macro_rules! json_object {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $t {
            fn to_json(&self) -> $crate::JsonValue {
                $crate::JsonValue::Object(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

// JSON views of the analyzer report types `spc_audit` embeds in its
// artifact (the trait is local, so the foreign impls live here).

impl ToJson for spc_analyze::Severity {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for spc_analyze::Finding {
    fn to_json(&self) -> Value {
        Value::object([
            ("severity", self.severity.to_json()),
            ("code", self.kind.code().to_json()),
            (
                "rules",
                Value::Array(
                    self.rules
                        .iter()
                        .map(|r| Value::Int(i128::from(r.0)))
                        .collect(),
                ),
            ),
            ("message", self.message.to_json()),
        ])
    }
}

impl ToJson for spc_analyze::RuleSetReport {
    fn to_json(&self) -> Value {
        // Per-dimension arrays keyed by the canonical dimension names.
        fn dims(counts: &[usize; 7]) -> Value {
            Value::Object(
                spc_types::ALL_DIMS
                    .iter()
                    .zip(counts.iter())
                    .map(|(d, &n)| (d.to_string(), n.to_json()))
                    .collect(),
            )
        }
        Value::object([
            ("rules", self.rules.to_json()),
            (
                "max_severity",
                self.max_severity().map_or(Value::Null, |s| s.to_json()),
            ),
            ("findings", self.findings.to_json()),
            ("dim_cardinality", dims(&self.dim_cardinality)),
            ("max_match_depth", dims(&self.max_match_depth)),
            ("distinct_keys", self.distinct_keys.to_json()),
            // u128 bounds can exceed every JSON integer convention; emit
            // them as decimal strings.
            (
                "combo_upper_bound",
                self.combo_upper_bound.to_string().to_json(),
            ),
            (
                "intersection_bound",
                self.intersection_bound.to_string().to_json(),
            ),
            (
                "shadowed_rules",
                Value::Array(
                    self.shadowed_rules()
                        .iter()
                        .map(|r| Value::Int(i128::from(r.0)))
                        .collect(),
                ),
            ),
            ("exhaustive", self.exhaustive.to_json()),
            ("probes", self.probes.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escaping() {
        assert_eq!(42u32.to_json().pretty(), "42");
        assert_eq!((-3i32).to_json().pretty(), "-3");
        assert_eq!(true.to_json().pretty(), "true");
        assert_eq!(1.5f64.to_json().pretty(), "1.5");
        assert_eq!(Value::Num(f64::NAN).pretty(), "null");
        assert_eq!("a\"b\n".to_json().pretty(), "\"a\\\"b\\n\"");
        assert_eq!(Option::<u32>::None.to_json().pretty(), "null");
    }

    #[test]
    fn containers_nest() {
        let v = vec![Some(vec!["x", "y"]), None];
        let s = v.to_json().pretty();
        assert!(s.starts_with('['), "{s}");
        assert!(s.contains("\"x\""), "{s}");
        assert!(s.contains("null"), "{s}");
        assert_eq!(
            vec![1u8, 2, 3].to_json(),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn object_builder_and_macro_shape() {
        let o = Value::object([("a", 1u8.to_json()), ("b", Value::Null)]);
        let s = o.pretty();
        assert!(s.contains("\"a\": 1"), "{s}");
        assert!(s.contains("\"b\": null"), "{s}");

        struct Rec {
            a: u8,
        }
        crate::json_object!(Rec { a });
        assert_eq!(
            Rec { a: 1 }.to_json(),
            Value::object([("a", Value::Int(1))])
        );
    }

    #[test]
    fn empty_containers_compact() {
        assert_eq!(Value::Array(vec![]).pretty(), "[]");
        assert_eq!(Value::Object(vec![]).pretty(), "{}");
    }
}
