//! A minimal recursive-descent JSON parser.
//!
//! The workspace ships no serialization dependency, yet two consumers
//! need to *read* JSON we emit: the exporter round-trip tests (schema
//! changes must not slip silently) and the `basecache-trace` CLI
//! (validating Chrome trace files, diffing bench reports). This parser
//! covers exactly RFC 8259 — objects, arrays, strings with escapes,
//! numbers, booleans, null — with no extensions and no streaming. It is
//! linear in the input and accepts at most 128 nested arrays/objects, so
//! a hostile file gets a [`ParseError`], never a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keyed by a sorted map: key order is not significant
    /// in the reports we read, and lookups stay O(log n).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object by key (`None` for absent key or non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The underlying array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The underlying object map, if this is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// How many arrays and objects may enclose a value. The exporters write
/// at most five levels; the cap only stops recursion on hostile input.
const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so the run ends on a character boundary of
            // the (already valid UTF-8) input.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape sequence stands for; `pos` is just past
    /// the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // A leading surrogate must be followed by `\uXXXX` with
                // the trailing one.
                let ch = if (0xD800..0xDC00).contains(&code) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        (0xDC00..0xE000)
                            .contains(&low)
                            .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                            .and_then(char::from_u32)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                return ch.ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let code = self
            .text
            .get(self.pos..end)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::StreamRng;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}, null], "d": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(a[2], Value::Null);
        assert!(v.get("d").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let escaped = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(escaped.as_str(), Some("😀"));
        let raw = parse(r#""😀""#).unwrap();
        assert_eq!(raw.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("'single'").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""\u+123""#).is_err(), "four hex digits, no sign");
        assert!(
            parse(r#""\ud83d\u0041""#).is_err(),
            "lead surrogate needs a trailer"
        );
        assert!(parse(r#""\u00é""#).is_err());
    }

    #[test]
    fn whitespace_everywhere_is_fine() {
        let v = parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    /// Serialise `value` as JSON, choosing at random how to spell each
    /// string character (raw, short escape, `\uXXXX`, surrogate pair)
    /// and what whitespace to put between tokens — the decoder must read
    /// every spelling back to the same tree.
    fn write_value(value: &Value, rng: &mut StreamRng, out: &mut String) {
        const SPACE: [&str; 4] = ["", " ", "\n\t", "\r\n "];
        let ws = |rng: &mut StreamRng, out: &mut String| {
            out.push_str(SPACE[rng.random_range(0..SPACE.len())]);
        };
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format!("{n}")),
            Value::String(s) => write_string(s, rng, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    write_value(item, rng, out);
                    ws(rng, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    write_string(key, rng, out);
                    ws(rng, out);
                    out.push(':');
                    ws(rng, out);
                    write_value(item, rng, out);
                }
                out.push('}');
            }
        }
    }

    fn write_string(s: &str, rng: &mut StreamRng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{0008}' => Some("\\b"),
                '\u{000C}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
            match rng.random_range(0..3u32) {
                0 if !must_escape => out.push(c),
                1 if short.is_some() => out.push_str(short.unwrap()),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
            }
        }
        out.push('"');
    }

    /// Characters that stress the decoder: quotes, backslashes, control
    /// characters, and 2-, 3- and 4-byte UTF-8 (the last a surrogate pair
    /// when escaped).
    const PALETTE: [char; 14] = [
        'a',
        'Z',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\u{1}',
        'é',
        '€',
        '😀',
        '\u{FFFF}',
        '\u{E000}',
        '\u{10FFFF}',
    ];

    fn random_string(rng: &mut StreamRng) -> String {
        let len = rng.random_range(0..12usize);
        (0..len)
            .map(|_| PALETTE[rng.random_range(0..PALETTE.len())])
            .collect()
    }

    fn random_value(rng: &mut StreamRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 4u32 } else { 6 };
        match rng.random_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.random()),
            2 => {
                let n = f64::from_bits(rng.next_u64());
                Value::Number(if n.is_finite() { n } else { -0.5 })
            }
            3 => Value::String(random_string(rng)),
            4 => Value::Array(
                (0..rng.random_range(0..4usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.random_range(0..4usize))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_values_round_trip() {
        basecache_sim::check::run_cases("obs/json/round-trip", 256, |_, rng| {
            let value = random_value(rng, 4);
            let mut text = String::new();
            write_value(&value, rng, &mut text);
            assert_eq!(parse(&text), Ok(value), "{text}");
        });
    }

    #[test]
    fn multi_megabyte_string_round_trips() {
        // Escapes and multi-byte characters sprinkled through 4 MB: the
        // decoder copies the plain runs between escapes as whole slices.
        let chunk = "plain run é€😀 \" \\ \n / end";
        let long = chunk.repeat((4 << 20) / chunk.len() + 1);
        let mut doc = Value::Object(BTreeMap::new());
        if let Value::Object(map) = &mut doc {
            map.insert("payload".into(), Value::String(long.clone()));
        }
        let mut text = String::new();
        write_value(
            &doc,
            &mut basecache_sim::check::case_rng("obs/json/long", 0),
            &mut text,
        );
        let parsed = parse(&text).expect("long string parses");
        assert_eq!(
            parsed.get("payload").and_then(Value::as_str),
            Some(long.as_str())
        );
    }

    #[test]
    fn nesting_is_capped_with_a_parse_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(
            parse(&nested(MAX_DEPTH)).is_ok(),
            "the cap itself is accepted"
        );
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.offset, MAX_DEPTH,
            "fails at the first bracket past the cap"
        );
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past any stack: an error, not an abort.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }
}
