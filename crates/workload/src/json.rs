//! The one place JSON text is written or read. Every `--json` row, every
//! `BENCH_<pr>.json` record and every `--trace-out` chrome trace is a
//! [`Value`]: built with [`object`] and the `From` conversions, rendered
//! compactly by its `Display` (one row per line, [`write_lines`]), one
//! member per line by [`pretty`], or with one array streamed member by
//! member ([`write_with_array`]) when the array is too long to hold as a
//! tree. [`parse`] reads any of them back.
//!
//! The build environment has no registry access, so this stands in for
//! `serde`/`serde_json`. The [`Value`] API mirrors the `serde_json::Value`
//! subset downstream code uses (`v["field"]`, comparisons against
//! primitives) so a later move to real serde is mechanical. Objects keep
//! their members sorted by key, so every document renders in key order.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::ops::Index;

use threadscan::Hist;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, like `serde_json`'s lossy view).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted by key).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member access; missing keys or non-objects yield [`Value::Null`]
    /// (the `serde_json` convention).
    pub fn get(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(map) => map.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

macro_rules! impl_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
    )*};
}
impl_eq_num!(u32, u64, usize, i32, i64, f64);

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Number(n as f64)
            }
        }
    )*};
}
impl_from_num!(u32, u64, usize, f64);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

/// A latency histogram is its non-empty buckets, ascending:
/// `[[lowest ns the bucket covers, count], …]`.
impl From<&Hist> for Value {
    fn from(hist: &Hist) -> Self {
        hist.buckets()
            .map(|(lo, n)| Value::from_iter([lo, n]))
            .collect()
    }
}

/// `None` is `null`, as `serde` renders an absent `Option`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collecting values makes an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// An object with `members`; a repeated key keeps its last value.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{}", fmt_number(*n)),
            Value::String(s) => f.write_str(&escape(s)),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `value` with one object member per line, arrays on one line.
pub fn pretty(value: &Value, indent: usize, out: &mut String) {
    let Value::Object(members) = value else {
        out.push_str(&value.to_string());
        return;
    };
    out.push('{');
    for (i, (key, member)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        out.push_str(&escape(key));
        out.push_str(": ");
        pretty(member, indent + 1, out);
    }
    if !members.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push('}');
}

/// Writes `rows` as JSON lines: each one compact document and a newline.
pub fn write_lines(out: &mut dyn Write, rows: impl IntoIterator<Item = Value>) -> io::Result<()> {
    rows.into_iter().try_for_each(|row| writeln!(out, "{row}"))
}

/// Writes the object of `members` plus one more member, `key`, whose
/// array is rendered one item at a time as `items` yields it, so it is
/// never held as one tree. `key` must sort after every other key, or the
/// document leaves key order.
pub fn write_with_array<'a>(
    out: &mut dyn Write,
    members: impl IntoIterator<Item = (&'a str, Value)>,
    key: &str,
    items: impl IntoIterator<Item = Value>,
) -> io::Result<()> {
    let members: BTreeMap<&str, Value> = members.into_iter().collect();
    out.write_all(b"{")?;
    for (k, v) in &members {
        write!(out, "{}:{v},", escape(k))?;
    }
    write!(out, "{}:[", escape(key))?;
    for (i, item) in items.into_iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(out, "{comma}{item}")?;
    }
    out.write_all(b"]}")
}

/// Renders a number the way `serde_json` would: integers without a
/// fractional part, everything else via Rust's shortest-roundtrip float
/// formatting.
fn fmt_number(n: f64) -> String {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        format!("{}", n as i64)
    } else if n.is_finite() {
        format!("{n}")
    } else {
        // JSON has no Inf/NaN; serialize as null like serde_json's lossy mode.
        "null".to_string()
    }
}

/// Escapes a string into a quoted JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a JSON document (strict; no trailing garbage).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not emitted by this
                            // module's own writer; reject rather than
                            // mis-decode.
                            let c =
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected ',' or ']' found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => return Err(format!("expected ',' or '}}' found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_objects() {
        let src = r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": {"d": -2.5e1}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v["a"], 1u64);
        assert_eq!(v["b"], parse(r#"[true, null, "x\n\"y"]"#).unwrap());
        assert_eq!(v["c"]["d"], -25.0);
        assert!(v["missing"].is_null());
        // Display form re-parses to the same value.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Multi-byte characters, 2-, 3- and 4-byte, in keys and values.
        let src = r#"{"q1–q3": "µs", "𝄞": ["a𝄞b", "µ"]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v["q1–q3"], "µs");
        assert_eq!(v["𝄞"], parse(r#"["a𝄞b", "µ"]"#).unwrap());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn builder_emits_parseable_lines() {
        let line = object([
            ("scheme", "epoch".into()),
            ("threads", 100usize.into()),
            ("ok", Value::Bool(true)),
            ("leaked", None::<u64>.into()),
            ("nested", object([("x", 1u32.into())])),
        ])
        .to_string();
        assert_eq!(
            line,
            r#"{"leaked":null,"nested":{"x":1},"ok":true,"scheme":"epoch","threads":100}"#
        );
        let v = parse(&line).unwrap();
        assert_eq!(v["scheme"], "epoch");
        assert_eq!(v["threads"], 100);
        assert_eq!(v["ok"], true);
        assert!(v["leaked"].is_null());
        assert_eq!(v["nested"]["x"], 1u64);
    }

    #[test]
    fn builder_emits_numeric_arrays() {
        let line = object([
            ("counts", [3u64, 1, 2].into_iter().collect()),
            ("empty", Vec::<f64>::new().into_iter().collect()),
        ])
        .to_string();
        let v = parse(&line).unwrap();
        assert_eq!(
            v["counts"],
            Value::Array(vec![
                Value::Number(3.0),
                Value::Number(1.0),
                Value::Number(2.0)
            ])
        );
        assert_eq!(v["empty"], Value::Array(Vec::new()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = object([
            ("a", [1.0, 2.5].into_iter().collect()),
            ("b", object([("c", "d".into()), ("e", object([]))])),
        ]);
        let mut out = String::new();
        pretty(&doc, 0, &mut out);
        assert_eq!(
            out,
            "{\n  \"a\": [1,2.5],\n  \"b\": {\n    \"c\": \"d\",\n    \"e\": {}\n  }\n}"
        );
        assert_eq!(parse(&out).unwrap(), doc);
    }

    /// The committed `ts-bench pairs` records re-render to their exact
    /// bytes: the printer that wrote them is this one.
    #[test]
    fn committed_bench_records_render_byte_for_byte() {
        for (name, text) in [
            ("BENCH_33", include_str!("../../../BENCH_33.json")),
            ("BENCH_34", include_str!("../../../BENCH_34.json")),
            ("BENCH_35", include_str!("../../../BENCH_35.json")),
            ("BENCH_36", include_str!("../../../BENCH_36.json")),
        ] {
            let mut out = String::new();
            pretty(&parse(text).unwrap(), 0, &mut out);
            out.push('\n');
            assert!(out == text, "{name} renders differently");
        }
    }
}
