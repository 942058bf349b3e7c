//! A JSON value that can only be written. The container has no serde;
//! the benchmark needs to emit results, never to parse them (the
//! comparison tool is `compare.py`).

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A measured value; non-finite values are written as `null`.
    Num(f64),
    /// An exact count.
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is insertion order: it is the reading order of a report.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Indented rendering for files people read; `Display` is the
    /// one-line form for the last line of standard output.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0)).expect("writing to a String cannot fail");
        out.push('\n');
        out
    }

    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        let (open_sep, item_sep, close_sep, inner) = match indent {
            Some(level) => (
                format!("\n{}", "  ".repeat(level + 1)),
                format!(",\n{}", "  ".repeat(level + 1)),
                format!("\n{}", "  ".repeat(level)),
                Some(level + 1),
            ),
            None => (String::new(), ", ".to_string(), String::new(), None),
        };
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(v) if v.is_finite() => write!(out, "{v}"),
            Json::Num(_) => out.write_str("null"),
            Json::Int(v) => write!(out, "{v}"),
            Json::Str(s) => write_str(out, s),
            // Arrays of scalars stay on one line even when indenting.
            Json::Arr(items) if items.iter().all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    item.write(out, None)?;
                }
                out.write_char(']')
            }
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    out.write_str(if i == 0 { &open_sep } else { &item_sep })?;
                    item.write(out, inner)?;
                }
                out.write_str(&close_sep)?;
                out.write_char(']')
            }
            Json::Obj(pairs) if pairs.is_empty() => out.write_str("{}"),
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.write_str(if i == 0 { &open_sep } else { &item_sep })?;
                    write_str(out, key)?;
                    out.write_str(": ")?;
                    value.write(out, inner)?;
                }
                out.write_str(&close_sep)?;
                out.write_char('}')
            }
        }
    }
}

fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_and_indented_forms() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(7)),
            ("metrics", Json::obj([("a", Json::obj([("value", Json::Num(1.25))]))])),
            ("raw", Json::nums(&[1.0, f64::NAN])),
            ("note", Json::str("a \"quoted\"\nline")),
            ("claim", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 7, "metrics": {"a": {"value": 1.25}}, "raw": [1, null], "note": "a \"quoted\"\nline", "claim": null}"#
        );
        let pretty = v.pretty();
        assert!(pretty.contains("\n  \"attempted\": 7,\n"));
        assert!(pretty.contains("\n    \"a\": {\n      \"value\": 1.25\n    }\n"));
        assert!(pretty.ends_with("\"claim\": null\n}\n"));
    }
}
