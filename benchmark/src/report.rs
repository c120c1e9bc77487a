//! The JSON writer, the median, and the line format children report in.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

pub enum Json {
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` carries; non-finite becomes `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Median of the repeats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What one child process measured: `name value` per line on its stdout.
pub type Measured = BTreeMap<String, f64>;

pub fn render_measured(m: &Measured) -> String {
    m.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

pub fn parse_measured(text: &str) -> Result<Measured, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("child line without a value: {line:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("child line {line:?}: {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_escapes_nests_and_keeps_digits() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(u64::MAX)),
            (
                "metrics",
                Json::obj([(
                    "op \"p99\"\n",
                    Json::obj([
                        ("value", Json::Num(271.123456789)),
                        ("unit", Json::str("us")),
                    ]),
                )]),
            ),
            (
                "list",
                Json::Arr(vec![
                    Json::Num(1e21),
                    Json::Num(f64::NAN),
                    Json::str("a\\b\u{1}"),
                ]),
            ),
        ]);
        assert_eq!(
            j.to_string(),
            "{\"correct\": true, \"attempted\": 18446744073709551615, \"metrics\": \
             {\"op \\\"p99\\\"\\n\": {\"value\": 271.123456789, \"unit\": \"us\"}}, \
             \"list\": [1000000000000000000000, null, \"a\\\\b\\u0001\"]}"
        );
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 2.0, 100.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn measured_lines_round_trip() {
        let mut m = Measured::new();
        m.insert("ops_per_s".into(), 5_123_456.789);
        m.insert("core.survivor_ratio".into(), 0.001953125);
        assert_eq!(parse_measured(&render_measured(&m)).unwrap(), m);
        assert!(parse_measured("novalue\n").is_err());
        assert!(parse_measured("x notanumber\n").is_err());
    }
}
