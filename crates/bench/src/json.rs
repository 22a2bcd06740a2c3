//! Minimal hermetic JSON support shared by the bench artifacts.
//!
//! The workspace is hermetic (no external JSON crate), so the bench crate
//! carries its own writer helpers and a recursive-descent reader
//! covering exactly the subset the artifact writers emit: objects,
//! arrays, strings (`\"`/`\\`/`\uXXXX` escapes), numbers, booleans, and
//! null. Both the perf-trajectory artifacts ([`crate::trajectory`]) and
//! the telemetry artifacts ([`crate::telemetry`]) parse through this
//! module, so they share one set of strictness guarantees:
//!
//! * **Non-finite numbers are rejected.** JSON has no `Infinity`/`NaN`;
//!   a literal like `1e999` that overflows `f64` to infinity is a parse
//!   error, not a silent `inf` that later poisons a ratio.
//! * **Duplicate object keys are rejected.** The artifact writers never
//!   emit them, so a duplicate means a corrupted or hand-edited file —
//!   and silently taking the first (or last) occurrence would make the
//!   validation downstream check the wrong value.

use std::fmt::Write as _;

/// Quotes a string for JSON. The schemas' strings are identifier-like;
/// the JSON-mandatory escapes are still handled.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a time/ratio with enough digits to round-trip meaningfully.
/// Non-finite values serialize as `null` so readers fail loudly instead
/// of consuming a bogus number.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Parsed JSON value (the subset the artifact writers emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the parser rejects non-finite literals).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order, with unique keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }

    /// The number, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(x) => Ok(*x),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The number as a non-negative integer, or an error naming `what`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        let x = self.as_f64(what)?;
        if x.fract() == 0.0 && x >= 0.0 && x <= usize::MAX as f64 {
            Ok(x as usize)
        } else {
            Err(format!("{what}: {x} is not a non-negative integer"))
        }
    }

    /// The number as a `u64`, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        let x = self.as_f64(what)?;
        if x.fract() == 0.0 && x >= 0.0 && x <= u64::MAX as f64 {
            Ok(x as u64)
        } else {
            Err(format!("{what}: {x} is not a non-negative integer"))
        }
    }
}

/// Looks up a required object field.
pub fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Minimal recursive-descent JSON parser over the writers' subset. See
/// the module docs for the strictness rules (finite numbers, unique
/// object keys, no trailing bytes).
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser over `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parses one complete document, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse_document(&mut self) -> Result<Value, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf8 in number".to_string())?;
        let x = text
            .parse::<f64>()
            .map_err(|_| format!("malformed number {text:?} at offset {start}"))?;
        // `str::parse` turns overflowing literals like 1e999 into
        // infinity; JSON numbers are finite by definition.
        if !x.is_finite() {
            return Err(format!(
                "non-finite number {text:?} at offset {start} (JSON numbers must be finite)"
            ));
        }
        Ok(Value::Num(x))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied().ok_or("bad escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                    self.pos += 1;
                }
                byte => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf8 in string".to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                    let _ = byte;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {:?}", other as char)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            // The writers emit each key once; a duplicate means the file
            // was corrupted or hand-edited, and picking either occurrence
            // silently would validate the wrong value.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key {key:?}"));
            }
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Parser::new(r#"{"kA": "a\"b\\c", "x": [1.5e2, -3, true, null]}"#)
            .parse_document()
            .unwrap();
        let obj = v.as_object("top").unwrap();
        assert_eq!(get(obj, "kA").unwrap().as_str("kA").unwrap(), "a\"b\\c");
        let arr = get(obj, "x").unwrap().as_array("x").unwrap();
        assert_eq!(arr[0].as_f64("0").unwrap(), 150.0);
        assert_eq!(arr[1].as_f64("1").unwrap(), -3.0);
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        // 1e999 overflows f64 to infinity; the parser must reject it
        // rather than hand back `inf`.
        for doc in ["1e999", "-1e999", r#"{"x": 1e999}"#, "[2.5, 1e400]"] {
            let err = Parser::new(doc).parse_document().unwrap_err();
            assert!(err.contains("non-finite"), "{doc}: {err}");
        }
        // Subnormal underflow parses to 0.0 — finite, accepted.
        let v = Parser::new("1e-999").parse_document().unwrap();
        assert_eq!(v.as_f64("x").unwrap(), 0.0);
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let err = Parser::new(r#"{"a": 1, "b": 2, "a": 3}"#)
            .parse_document()
            .unwrap_err();
        assert!(err.contains("duplicate") && err.contains("\"a\""), "{err}");
        // Nested objects are checked too.
        let err = Parser::new(r#"{"outer": {"k": 1, "k": 1}}"#)
            .parse_document()
            .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // Same key in *different* objects is fine.
        Parser::new(r#"[{"k": 1}, {"k": 2}]"#)
            .parse_document()
            .unwrap();
    }

    #[test]
    fn malformed_constructs_are_rejected() {
        for doc in ["{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2"] {
            assert!(Parser::new(doc).parse_document().is_err(), "{doc}");
        }
    }

    #[test]
    fn quote_escapes_and_num_nulls_nonfinite() {
        assert_eq!(quote("a\"b"), r#""a\"b""#);
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.500000");
    }
}
