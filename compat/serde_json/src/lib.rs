//! Vendored stand-in for the subset of the `serde_json` crate API used by
//! this workspace: [`to_string`], [`to_string_pretty`], [`from_str`] and
//! the [`Value`] tree (defined in the companion `serde` stand-in).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::Value;

use serde::Serialize;
use std::fmt;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching the upstream crate's.
pub type Result<T> = std::result::Result<T, Error>;

/// Renders a value as compact JSON.
///
/// # Errors
/// Never fails for the data model this workspace serializes; the `Result`
/// exists for call-site compatibility with the real crate.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Renders a value as 2-space-indented JSON.
///
/// # Errors
/// Never fails for the data model this workspace serializes.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// A type that can be produced by [`from_str`]. The workspace only ever
/// parses into [`Value`].
pub trait DeserializeOwned: Sized {
    /// Converts a parsed [`Value`] into `Self`.
    ///
    /// # Errors
    /// Returns an error when the value does not fit the target type.
    fn from_value(value: Value) -> Result<Self>;
}

impl DeserializeOwned for Value {
    fn from_value(value: Value) -> Result<Self> {
        Ok(value)
    }
}

/// Parses a JSON document.
///
/// # Errors
/// Returns an error on malformed input or trailing garbage.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        // `{:?}` is Rust's shortest-roundtrip float formatting and always
        // includes a `.` or exponent, keeping numbers typed on re-parse.
        Value::F64(n) => out.push_str(&format!("{n:?}")),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            write_seq(out, items.iter(), indent, depth, ('[', ']'), |o, x, d| {
                write_value(o, x, indent, d);
            })
        }
        Value::Object(fields) => {
            write_seq(
                out,
                fields.iter(),
                indent,
                depth,
                ('{', '}'),
                |o, (k, x), d| {
                    write_escaped(o, k);
                    o.push(':');
                    if indent.is_some() {
                        o.push(' ');
                    }
                    write_value(o, x, indent, d);
                },
            );
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(brackets.0);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(out, item, depth + 1);
    }
    if !empty {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(brackets.1);
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value> {
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
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error("bad escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| Error("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // crate's writer; reject rather than mangle.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| Error("bad \\u codepoint".to_string()))?;
                            out.push(c);
                        }
                        _ => return Err(Error("unknown escape".to_string())),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid utf-8 in string".to_string()))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = Value::Object(vec![
            (
                "name".to_string(),
                Value::Str("a \"quoted\" s\n".to_string()),
            ),
            ("count".to_string(), Value::U64(42)),
            ("neg".to_string(), Value::I64(-7)),
            ("ratio".to_string(), Value::F64(0.05)),
            ("flag".to_string(), Value::Bool(true)),
            ("nothing".to_string(), Value::Null),
            (
                "items".to_string(),
                Value::Array(vec![Value::U64(1), Value::F64(2.5)]),
            ),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_pretty() {
        let v = Value::Array(vec![
            Value::Object(vec![("x".to_string(), Value::F64(1.25))]),
            Value::Object(vec![]),
            Value::Array(vec![]),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integers_stay_integers() {
        let parsed: Value = from_str("[7, -2, 1.0]").unwrap();
        assert_eq!(parsed[0].as_u64(), Some(7));
        assert_eq!(parsed[1], Value::I64(-2));
        assert_eq!(parsed[1].as_u64(), None);
        assert_eq!(parsed[2].as_u64(), None);
        assert_eq!(parsed[2], Value::F64(1.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "{\"a\" 1}",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        for &f in &[0.1, 1.0, 1e-12, 123456.789, -0.0625, f64::MAX] {
            let text = to_string(&Value::F64(f)).unwrap();
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, Value::F64(f), "text {text}");
        }
    }
}
