//! The **snapshot substrate**: a versioned, dependency-free container for
//! full machine state (ROADMAP item 5).
//!
//! Snapshots are self-describing JSON documents built with the in-tree
//! [`Json`] module (which lives here so every crate in the workspace can
//! serialize state without new dependencies):
//!
//! ```text
//! {
//!   "schema": "rtosunit-snapshot-v2",
//!   "digest": "0x<fnv1a-64 of the rendered state>",
//!   "state": { ... }
//! }
//! ```
//!
//! The `state` payload is produced by `to_snap`/`restore_snap` methods on
//! each state-bearing struct (they live next to the structs, since most
//! fields are module-private). This crate owns only the *container*:
//!
//! * [`seal`] wraps a state value with the schema tag and a digest over
//!   its rendered bytes,
//! * [`open`] parses a document, checks the schema and re-verifies the
//!   digest — a truncated document fails to parse, a bit-flipped one
//!   fails the digest check, a future-versioned one is rejected by name.
//!   Corruption is an error, never a mis-restore.
//!
//! Determinism rules for snapshot producers: integers and strings only
//! (floats round-trip exactly through [`Json`], but none are needed),
//! object keys in fixed insertion order, any hash-map state serialized in
//! sorted key order. Under those rules `Json::parse(render(x)) == x`, so
//! digests computed at seal time and verify time always agree.
//!
//! Word-array payloads (memories, predictor tables, profile bins) use the
//! run-length codec ([`words_to_json`]/[`words_from_json`]): a flat
//! `[len0, val0, len1, val1, ...]` array — mostly-zero 64 KiB memories
//! collapse to a handful of runs.

pub mod json;

pub use json::{Json, JsonParseError};

/// Schema tag of version 2 snapshot artifacts.
pub const SCHEMA: &str = "rtosunit-snapshot-v2";

/// FNV-1a 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes` (the same function the artifact pin in
/// `tests/verification.rs` uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A snapshot decoding failure: what was being read and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Human-readable context, e.g. `"core.csrs.mstatus: missing field"`.
    pub context: String,
}

impl SnapError {
    /// Creates an error with the given context message.
    pub fn new(context: impl Into<String>) -> SnapError {
        SnapError {
            context: context.into(),
        }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.context)
    }
}

impl std::error::Error for SnapError {}

/// Wraps a state payload into a sealed, self-describing snapshot
/// document. The digest covers the rendered bytes of `state`, so any
/// in-flight corruption of the payload is detected by [`open`].
pub fn seal(state: Json) -> Json {
    let digest = fnv1a(state.render().as_bytes());
    Json::object()
        .with("schema", SCHEMA)
        .with("digest", format!("{digest:#018x}"))
        .with("state", state)
}

/// Parses and verifies a sealed snapshot document, returning the state
/// payload.
///
/// # Errors
///
/// Fails on malformed JSON (including truncation), a missing or unknown
/// schema tag, a missing digest, or a digest mismatch (bit-level
/// corruption of the state payload).
pub fn open(text: &str) -> Result<Json, SnapError> {
    let doc = Json::parse(text).map_err(|e| SnapError::new(format!("document: {e}")))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| SnapError::new("document: missing schema tag"))?;
    if schema != SCHEMA {
        return Err(SnapError::new(format!(
            "document: unsupported schema `{schema}` (expected `{SCHEMA}`)"
        )));
    }
    let digest_text = doc
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| SnapError::new("document: missing digest"))?;
    let claimed = u64::from_str_radix(digest_text.trim_start_matches("0x"), 16)
        .map_err(|_| SnapError::new(format!("document: malformed digest `{digest_text}`")))?;
    let state = doc
        .get("state")
        .ok_or_else(|| SnapError::new("document: missing state payload"))?;
    let actual = fnv1a(state.render().as_bytes());
    if actual != claimed {
        return Err(SnapError::new(format!(
            "document: digest mismatch (stored {claimed:#018x}, computed {actual:#018x}) — \
             snapshot is corrupted"
        )));
    }
    Ok(state.clone())
}

/// Looks up a required object field.
///
/// # Errors
///
/// Fails when `value` is not an object or lacks `key`.
pub fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, SnapError> {
    value
        .get(key)
        .ok_or_else(|| SnapError::new(format!("{key}: missing field")))
}

/// Reads a required `u64` field.
///
/// # Errors
///
/// Fails when the field is missing or not a non-negative integer.
pub fn get_u64(value: &Json, key: &str) -> Result<u64, SnapError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| SnapError::new(format!("{key}: expected unsigned integer")))
}

/// Reads a required `u32` field.
///
/// # Errors
///
/// Fails when the field is missing, not an integer, or out of range.
pub fn get_u32(value: &Json, key: &str) -> Result<u32, SnapError> {
    u32::try_from(get_u64(value, key)?)
        .map_err(|_| SnapError::new(format!("{key}: value exceeds u32 range")))
}

/// Reads a required `u8` field.
///
/// # Errors
///
/// Fails when the field is missing, not an integer, or out of range.
pub fn get_u8(value: &Json, key: &str) -> Result<u8, SnapError> {
    u8::try_from(get_u64(value, key)?)
        .map_err(|_| SnapError::new(format!("{key}: value exceeds u8 range")))
}

/// Reads a required `usize` field.
///
/// # Errors
///
/// Fails when the field is missing, not an integer, or out of range.
pub fn get_usize(value: &Json, key: &str) -> Result<usize, SnapError> {
    usize::try_from(get_u64(value, key)?)
        .map_err(|_| SnapError::new(format!("{key}: value exceeds usize range")))
}

/// Reads a required `bool` field.
///
/// # Errors
///
/// Fails when the field is missing or not a boolean.
pub fn get_bool(value: &Json, key: &str) -> Result<bool, SnapError> {
    match field(value, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(SnapError::new(format!("{key}: expected boolean"))),
    }
}

/// Reads a required string field.
///
/// # Errors
///
/// Fails when the field is missing or not a string.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, SnapError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| SnapError::new(format!("{key}: expected string")))
}

/// Reads a required array field.
///
/// # Errors
///
/// Fails when the field is missing or not an array.
pub fn get_array<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], SnapError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| SnapError::new(format!("{key}: expected array")))
}

/// Encodes a `u32` word array as a run-length JSON array:
/// `[len0, val0, len1, val1, ...]`. Mostly-uniform payloads (zeroed
/// memories, cold decode bitmaps) collapse to a few runs.
pub fn words_to_json(words: &[u32]) -> Json {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < words.len() {
        let val = words[i];
        let mut len = 1u64;
        while i + (len as usize) < words.len() && words[i + len as usize] == val {
            len += 1;
        }
        runs.push(Json::UInt(len));
        runs.push(Json::UInt(u64::from(val)));
        i += len as usize;
    }
    Json::Array(runs)
}

/// Decodes a run-length `u32` word array produced by [`words_to_json`],
/// checking the total length against `expect_len`.
///
/// # Errors
///
/// Fails on malformed runs or a length mismatch.
pub fn words_from_json(value: &Json, expect_len: usize) -> Result<Vec<u32>, SnapError> {
    let runs = value
        .as_array()
        .ok_or_else(|| SnapError::new("words: expected run-length array"))?;
    if runs.len() % 2 != 0 {
        return Err(SnapError::new("words: odd run-length array"));
    }
    let mut words = Vec::with_capacity(expect_len);
    for pair in runs.chunks_exact(2) {
        let len = pair[0]
            .as_u64()
            .ok_or_else(|| SnapError::new("words: run length not an integer"))?;
        let val = pair[1]
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| SnapError::new("words: run value not a u32"))?;
        if words.len() + len as usize > expect_len {
            return Err(SnapError::new("words: runs exceed expected length"));
        }
        words.extend(std::iter::repeat_n(val, len as usize));
    }
    if words.len() != expect_len {
        return Err(SnapError::new(format!(
            "words: decoded {} words, expected {expect_len}",
            words.len()
        )));
    }
    Ok(words)
}

/// Encodes a `u64` array as a run-length JSON array (profiler bins).
pub fn longs_to_json(values: &[u64]) -> Json {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < values.len() {
        let val = values[i];
        let mut len = 1u64;
        while i + (len as usize) < values.len() && values[i + len as usize] == val {
            len += 1;
        }
        runs.push(Json::UInt(len));
        runs.push(Json::UInt(val));
        i += len as usize;
    }
    Json::Array(runs)
}

/// Decodes a run-length `u64` array produced by [`longs_to_json`].
///
/// # Errors
///
/// Fails on malformed runs or a length mismatch.
pub fn longs_from_json(value: &Json, expect_len: usize) -> Result<Vec<u64>, SnapError> {
    let runs = value
        .as_array()
        .ok_or_else(|| SnapError::new("longs: expected run-length array"))?;
    if runs.len() % 2 != 0 {
        return Err(SnapError::new("longs: odd run-length array"));
    }
    let mut values = Vec::with_capacity(expect_len);
    for pair in runs.chunks_exact(2) {
        let len = pair[0]
            .as_u64()
            .ok_or_else(|| SnapError::new("longs: run length not an integer"))?;
        let val = pair[1]
            .as_u64()
            .ok_or_else(|| SnapError::new("longs: run value not a u64"))?;
        if values.len() + len as usize > expect_len {
            return Err(SnapError::new("longs: runs exceed expected length"));
        }
        values.extend(std::iter::repeat_n(val, len as usize));
    }
    if values.len() != expect_len {
        return Err(SnapError::new(format!(
            "longs: decoded {} values, expected {expect_len}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> Json {
        Json::object()
            .with("cycle", 12345u64)
            .with("pc", 0x8000_0000u32)
            .with("mem", words_to_json(&[0, 0, 0, 7, 7, 1, 0, 0]))
    }

    #[test]
    fn seal_open_round_trips() {
        let state = sample_state();
        let doc = seal(state.clone());
        let text = doc.render();
        let reopened = open(&text).expect("sealed snapshot must open");
        assert_eq!(reopened, state);
    }

    #[test]
    fn open_rejects_truncation() {
        let text = seal(sample_state()).render();
        for cut in (1..text.len()).step_by(7) {
            assert!(open(&text[..cut]).is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn open_rejects_bit_flips_in_the_state() {
        let text = seal(sample_state()).render();
        // Flip one digit inside the state payload (the cycle count).
        let tampered = text.replacen("12345", "12346", 1);
        assert_ne!(text, tampered, "tamper site must exist");
        let err = open(&tampered).expect_err("tampered snapshot must be rejected");
        assert!(err.context.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn open_rejects_unknown_schema() {
        let doc = seal(sample_state());
        let text = doc.render().replace(SCHEMA, "rtosunit-snapshot-v99");
        let err = open(&text).expect_err("future schema must be rejected");
        assert!(err.context.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn digests_are_stable_across_seals() {
        let a = seal(sample_state()).render();
        let b = seal(sample_state()).render();
        assert_eq!(a, b, "sealing the same state twice must be byte-identical");
    }

    #[test]
    fn rle_round_trips_and_checks_length() {
        let words: Vec<u32> = (0..256).map(|i| if i % 17 == 0 { i } else { 0 }).collect();
        let json = words_to_json(&words);
        assert_eq!(words_from_json(&json, 256).expect("round trip"), words);
        assert!(words_from_json(&json, 255).is_err());
        assert!(words_from_json(&json, 257).is_err());

        let longs: Vec<u64> = vec![u64::MAX, u64::MAX, 0, 1];
        let json = longs_to_json(&longs);
        assert_eq!(longs_from_json(&json, 4).expect("round trip"), longs);
    }

    #[test]
    fn typed_readers_report_context() {
        let obj = Json::object().with("a", 1u64).with("s", "x");
        assert_eq!(get_u64(&obj, "a"), Ok(1));
        assert_eq!(get_str(&obj, "s"), Ok("x"));
        assert!(get_u64(&obj, "missing")
            .unwrap_err()
            .context
            .contains("missing"));
        assert!(get_u8(&Json::object().with("b", 300u64), "b").is_err());
        assert!(get_bool(&obj, "a").is_err());
    }
}
