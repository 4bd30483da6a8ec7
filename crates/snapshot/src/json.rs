//! A minimal, dependency-free JSON writer, value tree and parser.
//!
//! Campaign artifacts (`results/*.json`), snapshots and BENCH reports are
//! written through this module so the whole experiment stack stays
//! offline-friendly (no serde). [`JsonWriter`] is the one place the text
//! layout is stated: a `String` plus a small stack of open containers,
//! writing each value straight into its output. The layout is
//! deterministic: two-space indentation, one object member or array item
//! per line, `{}` and `[]` for empty containers, arrays of scalars only on
//! one line joined by `, `, object keys in the order they are written,
//! and floats in Rust's shortest round-trip digits with a forced decimal
//! point. Equal values render to equal bytes, which the campaign
//! determinism tests and the snapshot digests rely on.
//!
//! [`Json`] is the value tree, for documents whose shape is the point:
//! snapshot payloads, attached artifact sections, analytic rows and
//! parsed documents. [`Json::render`] walks it through the writer, so a
//! tree and a streamed document of the same shape render the same text.
//! [`Json::parse`] is the matching reader; the CI smoke tests use it to
//! validate that emitted artifacts are well-formed JSON.

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

    /// Renders with a trailing newline, in the [`JsonWriter`] layout.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }
}

/// A streaming JSON writer: the output text plus a stack of the
/// containers still open in it. Each call writes one token straight into
/// the text, so a document costs its own bytes and no tree.
///
/// A value goes wherever the writer stands: as the document, after a
/// [`key`](JsonWriter::key) in an object, or as the next array item. An
/// array's layout is set by its first item: a scalar puts every item on
/// the opening line, joined by `, `; a container puts each item on its
/// own line. Misuse (a value without a key in an object, a key outside
/// one, a container after a scalar in an array, unbalanced closes) is a
/// programming error and panics.
///
/// ```
/// use rvsim_snapshot::json::{Json, JsonWriter};
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name").str("fig9");
/// w.key("latencies").begin_array();
/// for l in [70, 72] {
///     w.u64(l);
/// }
/// w.end_array();
/// w.end_object();
/// let text = w.finish();
/// assert_eq!(text, "{\n  \"name\": \"fig9\",\n  \"latencies\": [70, 72]\n}\n");
/// assert_eq!(Json::parse(&text).unwrap().render(), text);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    open: Vec<Open>,
    /// A key was written and its value has not been.
    keyed: bool,
}

/// One open container on a [`JsonWriter`]'s stack.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// `b'}'` or `b']'`.
    close: u8,
    /// Whether a member or item has been written.
    started: bool,
    /// Each member or item on its own line (objects, and arrays holding a
    /// container); otherwise all on the opening line.
    lines: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose output has room for `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// Ends the document with a newline and returns its text.
    ///
    /// # Panics
    ///
    /// Panics if no value was written or a container is still open.
    pub fn finish(mut self) -> String {
        assert!(
            self.open.is_empty() && !self.keyed && !self.out.is_empty(),
            "finish on an incomplete JSON document"
        );
        self.out.push('\n');
        self.out
    }

    /// Writes the next object member's key; its value is the next value
    /// written. Returns `self`, so a member reads `w.key("k").u64(v)`.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        let depth = self.open.len();
        let top = self
            .open
            .last_mut()
            .filter(|top| top.close == b'}' && !self.keyed)
            .expect("a JSON key belongs in an object, before its value");
        if std::mem::replace(&mut top.started, true) {
            self.out.push(',');
        }
        self.keyed = true;
        newline(&mut self.out, depth);
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.item(true);
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.item(true);
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer, exactly.
    pub fn u64(&mut self, u: u64) {
        self.item(true);
        write_u64(&mut self.out, u);
    }

    /// Writes a signed integer, exactly.
    pub fn i64(&mut self, i: i64) {
        self.item(true);
        if i < 0 {
            self.out.push('-');
        }
        write_u64(&mut self.out, i.unsigned_abs());
    }

    /// Writes a float (see [`JsonWriter`] for the digits).
    pub fn f64(&mut self, f: f64) {
        self.item(true);
        write_f64(&mut self.out, f);
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) {
        self.item(true);
        write_escaped(&mut self.out, s);
    }

    /// Writes a value tree.
    pub fn value(&mut self, value: &Json) {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.i64(*i),
            Json::UInt(u) => self.u64(*u),
            Json::Float(f) => self.f64(*f),
            Json::Str(s) => self.str(s),
            Json::Array(items) => {
                // An array mixing scalars and containers takes one line
                // per item, even when a scalar comes first.
                let lines = !items.iter().all(Json::is_scalar);
                self.open(b']', lines);
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Json::Object(pairs) => {
                self.begin_object();
                for (k, v) in pairs {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open(b'}', true);
    }

    /// Closes the innermost container, which must be an object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array; its first item sets its layout.
    pub fn begin_array(&mut self) {
        self.open(b']', false);
    }

    /// Closes the innermost container, which must be an array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    fn open(&mut self, close: u8, lines: bool) {
        self.item(false);
        self.out.push(if close == b'}' { '{' } else { '[' });
        self.open.push(Open {
            close,
            started: false,
            lines,
        });
    }

    fn close(&mut self, close: u8) {
        let top = self
            .open
            .pop()
            .filter(|top| top.close == close && !self.keyed)
            .unwrap_or_else(|| panic!("no open container to close with `{}`", close as char));
        if top.lines && top.started {
            newline(&mut self.out, self.open.len());
        }
        self.out.push(close as char);
    }

    /// Places the next value: after its key in an object, or as the next
    /// item of an array (choosing the array's layout on its first item).
    fn item(&mut self, scalar: bool) {
        let depth = self.open.len();
        let Some(top) = self.open.last_mut() else {
            assert!(self.out.is_empty(), "a JSON document holds one value");
            return;
        };
        if top.close == b'}' {
            assert!(
                std::mem::take(&mut self.keyed),
                "a JSON object value needs a key"
            );
            return;
        }
        if std::mem::replace(&mut top.started, true) {
            assert!(
                top.lines || scalar,
                "a one-line JSON array holds scalars only"
            );
            self.out.push_str(if top.lines { "," } else { ", " });
        } else {
            top.lines |= !scalar;
        }
        if top.lines {
            newline(&mut self.out, depth);
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

/// Starts a line indented two spaces per open container.
fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `u` in decimal, digit by digit from a stack buffer (the
/// formatting machinery costs more than the digits for the latencies an
/// artifact is made of).
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// JSON has no NaN/Infinity; they serialize as `null`. Finite floats use
/// Rust's shortest round-trip `Display`, forced to keep a decimal point so
/// they stay float-typed for consumers.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
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
    fn the_writer_lays_out_every_container_shape() {
        // Empty containers, a one-line scalar array (with a string that
        // holds the separator), an array whose container follows a
        // scalar, nested arrays and an object inside an array.
        let text = r#"{
  "empty_arr": [],
  "empty_obj": {},
  "row": [0, -9223372036854775808, 18446744073709551615, "x, y", null, 2.5, true],
  "mixed": [
    1,
    {},
    [
      []
    ]
  ],
  "objects": [
    {
      "k": 0.0
    }
  ]
}
"#;
        assert_eq!(Json::parse(text).unwrap().render(), text);
        let mut w = JsonWriter::new();
        w.begin_array();
        w.begin_object();
        w.key("k").f64(0.0);
        w.end_object();
        w.u64(3);
        w.end_array();
        assert_eq!(w.finish(), "[\n  {\n    \"k\": 0.0\n  },\n  3\n]\n");
        assert_eq!(Json::UInt(7).render(), "7\n");
    }

    #[test]
    fn the_writer_rejects_misuse() {
        let misuses: [fn(&mut JsonWriter); 6] = [
            |w| {
                w.begin_object();
                w.u64(1);
            },
            |w| {
                w.begin_array();
                w.key("k");
            },
            |w| {
                w.begin_array();
                w.u64(1);
                w.begin_object();
            },
            |w| {
                w.begin_object();
                w.end_array();
            },
            |w| {
                w.u64(1);
                w.u64(2);
            },
            |w| {
                w.begin_object();
                w.key("k");
                w.end_object();
            },
        ];
        for misuse in misuses {
            let caught = std::panic::catch_unwind(|| misuse(&mut JsonWriter::new()));
            assert!(caught.is_err());
        }
        let unfinished = std::panic::catch_unwind(|| {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.finish()
        });
        assert!(unfinished.is_err());
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
