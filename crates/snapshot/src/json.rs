//! A minimal, dependency-free JSON value builder, serializer and parser.
//!
//! Campaign artifacts (`results/*.json`) and BENCH reports are written
//! through this module so the whole experiment stack stays offline-friendly
//! (no serde). Serialization is deterministic: object keys keep insertion
//! order, floats use Rust's shortest round-trip formatting, and the writer
//! emits a stable two-space-indented layout — byte-identical output for
//! equal values, which the campaign determinism tests rely on.
//!
//! [`Json::parse`] is the matching reader; the CI smoke test uses it to
//! validate that emitted trace artifacts are well-formed JSON.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (no hashing) so output
/// is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers are kept exact (no float round-trip).
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair; panics if `self` is not an object.
    /// Returns `self` for chaining.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Appends a key/value pair in place; panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Object(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::push on non-object"),
        }
    }

    /// Whether this value renders without internal line breaks.
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    /// Looks up `key` in an object (first match, insertion order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up `key` in an object for editing (first match).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: any numeric variant widens (`u64` values
    /// beyond 2^53 lose precision, as in any JSON reader).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Parses a JSON document (the full text must be one value).
    ///
    /// Integers that fit stay exact ([`Json::UInt`]/[`Json::Int`]); other
    /// numbers become [`Json::Float`]. Duplicate object keys are kept as
    /// written (first wins for [`Json::get`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset and message on
    /// malformed input. Nesting beyond [`MAX_DEPTH`] containers and
    /// numbers that overflow `f64` range are malformed, not panics.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
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

    /// Renders with a trailing newline, two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Scalar-only arrays (e.g. latency vectors with thousands
                // of entries) render on one line to keep artifacts compact.
                if items.iter().all(Json::is_scalar) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, depth);
                    }
                    out.push(']');
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Parse failure: byte offset into the input plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting [`Json::parse`] accepts. The reader is
/// recursive-descent, so unbounded nesting would overflow the stack on
/// adversarial input like `[[[[...`; every artifact this repo emits is
/// a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON reader over raw bytes (the input is known to
/// be valid UTF-8, so multi-byte characters only appear inside strings).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object_value(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object_value(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped spans wholesale (covers multi-byte UTF-8).
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input was a &str, spans stay on char boundaries"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    // Surrogate pair: the low half must follow as \uXXXX.
                    if self.literal("\\u", Json::Null).is_err() {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            c => return Err(self.err(format!("invalid escape `\\{}`", c as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let v = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + v;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            // `1e999` parses to infinity; JSON has no non-finite numbers,
            // so out-of-range is malformed rather than a silent null.
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// JSON has no NaN/Infinity; they serialize as `null`. Finite floats use
/// Rust's shortest round-trip `Display`, forced to keep a decimal point so
/// they stay float-typed for consumers.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u64::from(u))
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}
impl From<&[u64]> for Json {
    fn from(v: &[u64]) -> Json {
        Json::Array(v.iter().map(|&u| Json::UInt(u)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::object()
            .with("name", "fig9")
            .with("ok", true)
            .with("count", 3u64)
            .with("mean", 70.25)
            .with("tags", Json::Array(vec![Json::Int(1), Json::Null]));
        let s = j.render();
        assert!(s.contains("\"name\": \"fig9\""));
        assert!(s.contains("\"mean\": 70.25"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("null"));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let mut s = String::new();
        write_f64(&mut s, 70.0);
        assert_eq!(s, "70.0");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let j = Json::object()
            .with("name", "fig9")
            .with("ok", true)
            .with("none", Json::Null)
            .with("count", 3u64)
            .with("neg", -7i64)
            .with("mean", 70.25)
            .with("text", "a\"b\\c\nd")
            .with("rows", Json::Array(vec![Json::UInt(1), Json::UInt(2)]))
            .with("empty_obj", Json::object())
            .with("empty_arr", Json::Array(vec![]))
            .with(
                "nested",
                Json::object().with("deep", Json::Array(vec![Json::object()])),
            );
        let parsed = Json::parse(&j.render()).expect("round trip");
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = Json::parse(r#""a\u0041\n\ud83d\ude00\/""#).expect("parses");
        assert_eq!(parsed.as_str(), Some("aA\n\u{1F600}/"));
        assert_eq!(Json::parse("\"caf\u{e9}\"").unwrap().as_str(), Some("café"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed `{bad}`");
        }
    }

    #[test]
    fn parse_rejects_truncated_documents() {
        // Every prefix of a valid document must fail cleanly, never panic.
        let full = r#"{"a": [1, -2.5, "xA"], "b": {"c": null}}"#;
        for cut in 1..full.len() {
            assert!(
                Json::parse(&full[..cut]).is_err(),
                "accepted truncated `{}`",
                &full[..cut]
            );
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        // Mixed and unclosed nesting must fail too, not overflow the stack.
        assert!(Json::parse(&"[{\"k\":".repeat(100_000)).is_err());
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parse_rejects_bad_escapes() {
        for bad in [
            r#""\x41""#,    // unknown escape letter
            r#""\u12""#,    // short hex
            r#""\u12g4""#,  // non-hex digit
            r#""\ud800x""#, // high surrogate without a pair
            r#""\udc00""#,  // lone low surrogate
            r#""\ud800A""#, // high surrogate paired with non-surrogate
            "\"\\",         // escape at end of input
        ] {
            assert!(Json::parse(bad).is_err(), "accepted bad escape `{bad}`");
        }
    }

    #[test]
    fn parse_rejects_nan_like_numbers() {
        for bad in [
            "NaN",
            "nan",
            "Infinity",
            "-Infinity",
            "inf",
            "-inf",
            "1e999",
            "-1e999",
            "-",
            "--1",
            "1.2.3",
            "1e",
            "0x10",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
        // Large magnitudes that still fit f64 stay accepted.
        assert_eq!(Json::parse("1e308").unwrap(), Json::Float(1e308));
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Float(18446744073709551616.0)
        );
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse(r#"{"runs": [{"cycles": 42, "label": "x"}], "neg": -1}"#).unwrap();
        let runs = doc.get("runs").and_then(Json::as_array).expect("array");
        assert_eq!(runs[0].get("cycles").and_then(Json::as_u64), Some(42));
        assert_eq!(runs[0].get("label").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            Json::object()
                .with("rows", Json::Array(vec![Json::UInt(1), Json::UInt(2)]))
                .with("empty", Json::object())
                .with("none", Json::Array(vec![]))
        };
        assert_eq!(build().render(), build().render());
    }
}
