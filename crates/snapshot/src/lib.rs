//! The **snapshot substrate**: a versioned, dependency-free container for
//! full machine state (ROADMAP item 5).
//!
//! Snapshots are self-describing JSON documents built with the in-tree
//! [`Json`] module (which lives here so every crate in the workspace can
//! serialize state without new dependencies):
//!
//! ```text
//! {
//!   "schema": "rtosunit-snapshot-v3",
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
//! run-length codec ([`runs_to_json`]/[`runs_from_json`]): a flat
//! `[len0, val0, len1, val1, ...]` array — mostly-zero 64 KiB memories
//! collapse to a handful of runs. Lists that grow with a run use
//! [`rows_to_json`]/[`rows_from_json`]: one flat array of fixed-width
//! integer rows.

pub mod json;

pub use json::{Json, JsonParseError};

/// Schema tag of version 3 snapshot artifacts.
pub const SCHEMA: &str = "rtosunit-snapshot-v3";

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

/// An element type of the run-length codec: `u32` words (memories,
/// predictor tables) or `u64` values (profile bins, cycle lists).
pub trait RunValue: Copy + Default + PartialEq + Into<u64> + TryFrom<u64> {}

impl RunValue for u32 {}
impl RunValue for u64 {}

/// Values compared at once while a run is long (zeroed memory).
const RUN_CHUNK: usize = 16;

/// One past the last index of the run of values equal to `values[start]`.
fn run_end<T: RunValue>(values: &[T], start: usize) -> usize {
    let val = values[start];
    let mut end = start + 1;
    while let Some(chunk) = values.get(end..end + RUN_CHUNK) {
        if !chunk.iter().fold(true, |same, &v| same & (v == val)) {
            break;
        }
        end += RUN_CHUNK;
    }
    end + values[end..].iter().take_while(|&&v| v == val).count()
}

/// Encodes an array as a run-length JSON array:
/// `[len0, val0, len1, val1, ...]`. Mostly-uniform payloads (zeroed
/// memories) collapse to a few runs.
pub fn runs_to_json<T: RunValue>(values: &[T]) -> Json {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < values.len() {
        let end = run_end(values, start);
        runs.push(Json::UInt((end - start) as u64));
        runs.push(Json::UInt(values[start].into()));
        start = end;
    }
    Json::Array(runs)
}

/// One `(len, value)` run of a [`runs_to_json`] array.
fn run_at<T: RunValue>(pair: &[Json]) -> Result<(usize, T), SnapError> {
    let len = pair[0]
        .as_u64()
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| SnapError::new("runs: run length not an unsigned integer"))?;
    let val = pair[1]
        .as_u64()
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| SnapError::new("runs: run value out of range"))?;
    Ok((len, val))
}

/// Decodes a run-length array produced by [`runs_to_json`], checking the
/// total length against `expect_len`. The lengths are summed before
/// anything is allocated; the result starts zeroed and only non-zero runs
/// are written, so decoding costs the runs, not the values.
///
/// # Errors
///
/// Fails on malformed runs, a value out of `T`'s range, or run lengths
/// that do not add up to `expect_len`.
pub fn runs_from_json<T: RunValue>(value: &Json, expect_len: usize) -> Result<Vec<T>, SnapError> {
    let runs = value
        .as_array()
        .ok_or_else(|| SnapError::new("runs: expected run-length array"))?;
    if runs.len() % 2 != 0 {
        return Err(SnapError::new("runs: odd run-length array"));
    }
    let mut total = 0usize;
    for pair in runs.chunks_exact(2) {
        let (len, _) = run_at::<T>(pair)?;
        total = total
            .checked_add(len)
            .filter(|&t| t <= expect_len)
            .ok_or_else(|| SnapError::new("runs: runs exceed expected length"))?;
    }
    if total != expect_len {
        return Err(SnapError::new(format!(
            "runs: decoded {total} values, expected {expect_len}"
        )));
    }
    if expect_len
        .checked_mul(std::mem::size_of::<T>())
        .is_none_or(|b| b > isize::MAX as usize)
    {
        return Err(SnapError::new(format!(
            "runs: {expect_len} values cannot be allocated"
        )));
    }
    let mut values = vec![T::default(); expect_len];
    let mut start = 0;
    for pair in runs.chunks_exact(2) {
        let (len, val) = run_at::<T>(pair)?;
        if val != T::default() {
            values[start..start + len].fill(val);
        }
        start += len;
    }
    Ok(values)
}

/// Encodes fixed-width rows as one flat array, `N` integers per row:
/// lists that grow with a run (switch records, trace marks) cost one
/// value per field, not one object per row.
pub fn rows_to_json<const N: usize>(rows: impl IntoIterator<Item = [u64; N]>) -> Json {
    Json::Array(rows.into_iter().flatten().map(Json::UInt).collect())
}

/// Decodes a flat array written by [`rows_to_json`]; `what` names the
/// list in errors.
///
/// # Errors
///
/// Fails when the value is not an array, its length is not a multiple of
/// `N`, or an entry is not an unsigned integer.
pub fn rows_from_json<const N: usize>(
    value: &Json,
    what: &str,
) -> Result<Vec<[u64; N]>, SnapError> {
    let flat = value
        .as_array()
        .ok_or_else(|| SnapError::new(format!("{what}: expected array")))?;
    if flat.len() % N != 0 {
        return Err(SnapError::new(format!(
            "{what}: {} values is not a whole number of {N}-field rows",
            flat.len()
        )));
    }
    flat.chunks_exact(N)
        .map(|chunk| {
            let mut row = [0; N];
            for (field, v) in row.iter_mut().zip(chunk) {
                *field = v
                    .as_u64()
                    .ok_or_else(|| SnapError::new(format!("{what}: expected unsigned integer")))?;
            }
            Ok(row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> Json {
        Json::object()
            .with("cycle", 12345u64)
            .with("pc", 0x8000_0000u32)
            .with("mem", runs_to_json(&[0u32, 0, 0, 7, 7, 1, 0, 0]))
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
        let json = runs_to_json(&words);
        assert_eq!(
            runs_from_json::<u32>(&json, 256).expect("round trip"),
            words
        );
        assert!(runs_from_json::<u32>(&json, 255).is_err());
        assert!(runs_from_json::<u32>(&json, 257).is_err());

        let longs: Vec<u64> = vec![u64::MAX, u64::MAX, 0, 1];
        let json = runs_to_json(&longs);
        assert_eq!(runs_from_json::<u64>(&json, 4).expect("round trip"), longs);
        assert!(
            runs_from_json::<u32>(&json, 4).is_err(),
            "u64 value accepted as u32"
        );
    }

    #[test]
    fn rle_runs_are_maximal_across_chunk_boundaries() {
        // Runs of every length around the chunk width, in both element
        // types: each encodes as exactly one (len, value) pair.
        for len in 1..3 * RUN_CHUNK + 2 {
            let mut words = vec![5u32; len];
            words.push(6);
            let json = runs_to_json(&words);
            let expected: Vec<Json> = [len as u64, 5, 1, 6].map(Json::UInt).into();
            assert_eq!(json, Json::Array(expected), "run of {len}");
            assert_eq!(runs_from_json::<u32>(&json, len + 1), Ok(words));
            let longs = vec![0u64; len];
            assert_eq!(
                runs_to_json(&longs),
                Json::Array(vec![Json::UInt(len as u64), Json::UInt(0)])
            );
        }
        assert_eq!(runs_to_json::<u32>(&[]), Json::Array(Vec::new()));
    }

    #[test]
    fn rle_run_lengths_that_overflow_are_errors() {
        // The second run's length overflows the running total; both
        // decoders must reject it instead of panicking.
        let runs = Json::Array([1, 7, u64::MAX, 0].map(Json::UInt).into());
        assert!(runs_from_json::<u32>(&runs, 4).is_err());
        assert!(runs_from_json::<u64>(&runs, 4).is_err());
        // A consistent claim too large to allocate is an error as well.
        let huge = Json::Array([u64::MAX / 2, 0].map(Json::UInt).into());
        assert!(runs_from_json::<u32>(&huge, (u64::MAX / 2) as usize).is_err());
    }

    #[test]
    fn rows_round_trip_and_reject_ragged_lists() {
        let rows = vec![[1u64, 2, 3], [4, 5, u64::MAX]];
        let json = rows_to_json(rows.iter().copied());
        assert_eq!(rows_from_json::<3>(&json, "rows"), Ok(rows));
        assert!(rows_from_json::<4>(&json, "rows").is_err(), "ragged list");
        let negative = Json::Array(vec![Json::Int(-1), Json::UInt(0)]);
        assert!(rows_from_json::<2>(&negative, "rows").is_err());
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
