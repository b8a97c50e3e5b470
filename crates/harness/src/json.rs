//! A minimal write-only JSON value tree.
//!
//! The workspace builds with no external crates, so the harness carries
//! its own emitter. It covers exactly what the experiment reports need:
//! objects with ordered keys, arrays, strings, integers, and floats
//! (serialized with enough precision to round-trip an `f64`).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (u64 keeps cycle counts exact).
    Int(u64),
    /// A float; non-finite values render as `null` per JSON's domain.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object; key order is preserved.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> JVal {
        JVal::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JVal)>) -> JVal {
        JVal::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation (the form written to disk).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * d));
            }
        };
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Int(n) => {
                let _ = write!(out, "{n}");
            }
            JVal::Num(x) => {
                if x.is_finite() {
                    // {:?} prints the shortest form that round-trips.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            JVal::Str(s) => write_escaped(out, s),
            JVal::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            JVal::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JVal::Null.render(), "null");
        assert_eq!(JVal::Bool(true).render(), "true");
        assert_eq!(
            JVal::Int(18446744073709551615).render(),
            "18446744073709551615"
        );
        assert_eq!(JVal::Num(1.5).render(), "1.5");
        assert_eq!(JVal::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(JVal::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(JVal::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn containers_nest() {
        let v = JVal::obj([
            ("xs", JVal::Arr(vec![JVal::Int(1), JVal::Int(2)])),
            ("s", JVal::str("hi")),
        ]);
        assert_eq!(v.render(), r#"{"xs":[1,2],"s":"hi"}"#);
    }

    #[test]
    fn pretty_is_parseably_shaped() {
        let v = JVal::obj([("a", JVal::Arr(vec![JVal::Int(1)]))]);
        let p = v.render_pretty();
        assert!(p.contains("\"a\": ["));
        assert!(p.ends_with("}\n"));
    }

    #[test]
    fn float_roundtrip_precision() {
        let x = 0.123_456_789_012_345_68_f64;
        let s = JVal::Num(x).render();
        assert_eq!(s.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JVal::Arr(vec![]).render(), "[]");
        assert_eq!(JVal::Obj(vec![]).render(), "{}");
    }
}
