//! Hand-rolled JSON support: string escaping for the writers and a minimal
//! recursive-descent parser for validation (`trace_check`, tests).
//!
//! The workspace has a zero-registry-dependency policy, so there is no
//! `serde`; the telemetry exporters emit JSON by string formatting and this
//! parser closes the loop by letting CI prove the output is well-formed.

use std::collections::BTreeMap;

/// Escape `s` for inclusion inside a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Inf; clamp to 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // shortest round-trip repr Rust gives us; always valid JSON
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
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

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (one value, surrounded by whitespace).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn num(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not reassembled; CI traces never
                            // emit them (ASCII kernel names).
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, which never occurs inside a multi-byte scalar,
                    // so the run starts and ends on char boundaries.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        let s = "a\"b\\c\nd\te\u{1}";
        let quoted = format!("\"{}\"", escape(s));
        let v = parse(&quoted).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"traceEvents":[{"ph":"X","ts":1.5,"ok":true},null],"n":-2e3}"#)
            .unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-2000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("nonsense").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn number_formatting_is_json() {
        for v in [0.0, 1.5, -2.25e-7, 1e20, f64::NAN, f64::INFINITY] {
            let s = number(v);
            assert!(parse(&s).is_ok(), "'{s}' must parse");
        }
    }

    /// A kernel store is a few MB of long PTX strings; parsing must be
    /// linear in the document, not quadratic in it.
    #[test]
    fn long_strings_parse_in_linear_time_and_roundtrip() {
        let unit = "ld.global αβγ \"quoted\" back\\slash\n\ttab 日本語 \u{1} ";
        let long: String = unit.repeat(64 * 1024 / unit.len());
        let n = 2 * 1024 * 1024 / long.len() + 1;
        let doc = format!(
            "[{}]",
            vec![format!("\"{}\"", escape(&long)); n].join(",")
        );
        assert!(doc.len() >= 2 * 1024 * 1024);
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed.as_secs_f64() < 2.0,
            "parsing {} bytes took {elapsed:?}",
            doc.len()
        );
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), n);
        assert!(items.iter().all(|s| s.as_str() == Some(long.as_str())));
        let rewritten = format!(
            "[{}]",
            items
                .iter()
                .map(|s| format!("\"{}\"", escape(s.as_str().unwrap())))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(rewritten, doc);
    }
}
