//! Dependency-free JSON emission and parsing for result reports.
//!
//! The build environment has no registry access, so instead of
//! `serde`/`serde_json` this module provides the two things the harness
//! needs: hand-written emission of [`RunResult`](crate::runner::RunResult)
//! lines (see `runner.rs`) and a small strict parser for reading them
//! back. The [`Value`] API intentionally mirrors the `serde_json::Value`
//! subset downstream code uses (`v["field"]`, comparisons against
//! primitives) so a later move to real serde is mechanical.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A parsed JSON document.
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

/// Renders a number the way `serde_json` would: integers without a
/// fractional part, everything else via Rust's shortest-roundtrip float
/// formatting.
pub fn fmt_number(n: f64) -> String {
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
pub fn escape(s: &str) -> String {
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

/// Incrementally builds one JSON object line (field order = insertion
/// order is *not* preserved on parse; readers must key by name).
#[derive(Default)]
pub struct ObjectBuilder {
    parts: Vec<String>,
}

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts
            .push(format!("{}:{}", escape(key), escape(value)));
        self
    }

    /// Adds a numeric field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.parts
            .push(format!("{}:{}", escape(key), fmt_number(value)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.parts.push(format!("{}:{}", escape(key), value));
        self
    }

    /// Adds an optional numeric field (`null` when `None`, matching what
    /// serde would emit for an `Option`).
    pub fn opt_num(mut self, key: &str, value: Option<f64>) -> Self {
        let rendered = match value {
            Some(v) => fmt_number(v),
            None => "null".to_string(),
        };
        self.parts.push(format!("{}:{rendered}", escape(key)));
        self
    }

    /// Adds a numeric-array field.
    pub fn arr_num(mut self, key: &str, values: impl IntoIterator<Item = f64>) -> Self {
        let items: Vec<String> = values.into_iter().map(fmt_number).collect();
        self.parts
            .push(format!("{}:[{}]", escape(key), items.join(",")));
        self
    }

    /// Adds a field holding pre-rendered JSON (nested object or `null`).
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.parts.push(format!("{}:{rendered}", escape(key)));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Parses a JSON document (strict; no trailing garbage).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
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
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
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
    }

    #[test]
    fn builder_emits_parseable_lines() {
        let line = ObjectBuilder::new()
            .str("scheme", "epoch")
            .num("threads", 100.0)
            .bool("ok", true)
            .opt_num("leaked", None)
            .raw("nested", "{\"x\":1}")
            .build();
        let v = parse(&line).unwrap();
        assert_eq!(v["scheme"], "epoch");
        assert_eq!(v["threads"], 100);
        assert_eq!(v["ok"], true);
        assert!(v["leaked"].is_null());
        assert_eq!(v["nested"]["x"], 1u64);
    }

    #[test]
    fn builder_emits_numeric_arrays() {
        let line = ObjectBuilder::new()
            .arr_num("counts", [3.0, 1.0, 2.0])
            .arr_num("empty", [])
            .build();
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
}
