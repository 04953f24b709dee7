//! In-tree stand-in for `serde_json`: a minimal [`Value`] tree and
//! [`from_str`], which the benchmark uses to read `BENCHMARK.json` and its
//! own child runs' output.  Nothing here writes JSON; the bench binaries'
//! trailing `JSON` lines come from `lcr_bench::ToJson`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// Error type mirroring `serde_json::Error`.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A parsed JSON value, mirroring `serde_json::Value` for the accessor
/// subset the workspace uses (`get`, `as_*`, array/object walking).
/// Object keys are kept in a `BTreeMap`, so iteration order is
/// deterministic (sorted), not insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, which covers every number the
    /// workspace writes).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse a JSON document.
///
/// # Errors
/// Returns [`Error`] on malformed input or trailing non-whitespace.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing data at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), Error> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::new(format!(
            "expected '{}' at byte {}",
            c as char, *pos
        )))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err(Error::new("unexpected end of input")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {}", *pos)))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| Error::new("non-UTF-8 number"))?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| Error::new(format!("invalid number {text:?} at byte {start}")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| Error::new("non-UTF-8 \\u escape"))?,
                            16,
                        )
                        .map_err(|_| Error::new("invalid \\u escape"))?;
                        // Surrogate pairs are not needed by the workspace's
                        // own output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error::new("invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences arrive
                // already valid: the input is a &str).
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| Error::new("non-UTF-8 string"))?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", *pos))),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", *pos))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = from_str(
            r#"{"bench": "kernels", "quick": false, "pool_threads": 4,
               "rows": [{"kernel": "dot", "melem_per_s": 1364.25}, {"kernel": "norm2"}],
               "note": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("kernels"));
        assert_eq!(v.get("quick"), Some(&Value::Bool(false)));
        assert_eq!(v.get("pool_threads").and_then(Value::as_u64), Some(4));
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("melem_per_s").and_then(Value::as_f64),
            Some(1364.25)
        );
        assert_eq!(v.get("note"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1, 2,]").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("\"open").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(from_str("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(from_str(" { } ").unwrap(), Value::Object(BTreeMap::new()));
    }
}
