//! The **snapshot substrate**: a versioned, dependency-free container for
//! full machine state (ROADMAP item 5).
//!
//! Snapshots are self-describing JSON documents built with the in-tree
//! [`Json`] module (which lives here so every crate in the workspace can
//! serialize state without new dependencies):
//!
//! ```text
//! {
//!   "schema": "rtosunit-snapshot-v1",
//!   "digest": "0x<fnv1a-64 of the rendered state>",
//!   "state": { ... }
//! }
//! ```
//!
//! The `state` payload is produced by one declarative codec per
//! state-bearing struct: a [`snap_fields!`] invocation next to the struct
//! lists its ordered `"key" => field` pairs once and generates both the
//! encoder and the decoder, so the two cannot drift. Irregular encodings
//! (run-length arrays, `-1`-as-`None` ids, enum tags) are per-field
//! [`Codec`] values; checks that relate fields run after decoding.
//! Decoding **always builds a new object** — nothing restores in place —
//! and bad input is an error, never a panic. This crate owns the codec
//! primitives and the *container*:
//!
//! * [`seal`] wraps a state value with the schema tag and a digest over
//!   its rendered bytes,
//! * [`verify`] checks the schema and digest of an already-parsed
//!   document, and [`open`] parses text and verifies it — a truncated
//!   document fails to parse, a bit-flipped one fails the digest check, a
//!   future-versioned one is rejected by name. Corruption is an error,
//!   never a mis-restore.
//!
//! Determinism rules for snapshot producers: integers and strings only
//! (floats round-trip exactly through [`Json`], but none are needed),
//! object keys in fixed insertion order, any hash-map state serialized in
//! sorted key order. Under those rules `Json::parse(render(x)) == x`, so
//! digests computed at seal time and verify time always agree.
//!
//! Word arrays (memories, decode bitmaps, profile bins) use the
//! run-length codec [`Rle`]: a flat `[len0, val0, len1, val1, ...]`
//! array — mostly-zero memories collapse to a handful of runs.

pub mod codec;
pub mod json;

pub use codec::{
    ensure, get, get_with, rle_decode, rle_encode, Boxed, Codec, Each, MinusOneIsNone, Named, Opt,
    Plain, Rle, RleAny, RleWord, Snap, SortedMap, Tags, Tuple, MAX_LEN,
};
pub use json::{Json, JsonParseError};

/// Schema tag of version 1 snapshot artifacts.
pub const SCHEMA: &str = "rtosunit-snapshot-v1";

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
    /// Whether `context` already starts with a key path.
    located: bool,
}

impl SnapError {
    /// Creates an error with the given context message.
    pub fn new(context: impl Into<String>) -> SnapError {
        SnapError {
            context: context.into(),
            located: false,
        }
    }

    /// This error, located inside object member (or array element) `key`.
    pub fn within(self, key: &str) -> SnapError {
        let context = match (self.located, self.context.starts_with('[')) {
            (true, true) => format!("{key}{}", self.context),
            (true, false) => format!("{key}.{}", self.context),
            (false, _) => format!("{key}: {}", self.context),
        };
        SnapError {
            context,
            located: true,
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
/// Fails on malformed JSON (including truncation) and everything
/// [`verify`] rejects.
pub fn open(text: &str) -> Result<Json, SnapError> {
    let doc = Json::parse(text).map_err(|e| SnapError::new(format!("document: {e}")))?;
    verify(&doc).cloned()
}

/// Checks the schema tag and digest of an already-parsed sealed document,
/// returning its state payload — no re-rendering or re-parsing of the
/// envelope.
///
/// # Errors
///
/// Fails on a missing or unknown schema tag, a missing or malformed
/// digest, a missing state payload, or a digest mismatch (bit-level
/// corruption of the state payload).
pub fn verify(doc: &Json) -> Result<&Json, SnapError> {
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
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> Json {
        Json::object()
            .with("cycle", 12345u64)
            .with("pc", 0x8000_0000u32)
            .with("mem", rle_encode([0u32, 0, 0, 7, 7, 1, 0, 0]))
    }

    #[test]
    fn seal_open_round_trips() {
        let state = sample_state();
        let doc = seal(state.clone());
        let text = doc.render();
        let reopened = open(&text).expect("sealed snapshot must open");
        assert_eq!(reopened, state);
        assert_eq!(verify(&doc), Ok(&state));
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
        let json = Rle(256).encode(&words);
        assert_eq!(Codec::<Vec<u32>>::decode(&Rle(256), &json), Ok(words));
        assert!(Codec::<Vec<u32>>::decode(&Rle(255), &json).is_err());
        assert!(Codec::<Vec<u32>>::decode(&Rle(257), &json).is_err());

        let longs: Vec<u64> = vec![u64::MAX, u64::MAX, 0, 1];
        let json = Rle(4).encode(&longs);
        assert_eq!(Codec::<Vec<u64>>::decode(&Rle(4), &json), Ok(longs));
    }

    #[test]
    fn rle_rejects_forged_lengths_without_allocating() {
        let forged = Json::Array(vec![Json::UInt(u64::MAX), Json::UInt(1)]);
        assert!(rle_decode::<u32>(&forged, Some(usize::MAX)).is_err());
        assert!(rle_decode::<u32>(&forged, None).is_err());
        let overflow = Json::Array(vec![
            Json::UInt(1),
            Json::UInt(1),
            Json::UInt(u64::MAX),
            Json::UInt(1),
        ]);
        assert!(rle_decode::<u32>(&overflow, None).is_err());
        let too_long = Json::Array(vec![Json::UInt(MAX_LEN as u64 + 1), Json::UInt(0)]);
        assert!(rle_decode::<u8>(&too_long, None).is_err());
        let wide = Json::Array(vec![Json::UInt(1), Json::UInt(256)]);
        assert!(rle_decode::<u8>(&wide, Some(1)).is_err());
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Mode {
        Idle,
        Busy,
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        mode: Mode,
        owner: Option<u8>,
        words: Vec<u32>,
        extra: Option<u64>,
    }

    snap_fields! {
        impl Snap for Sample {
            "mode" => mode: Tags(&[("idle", Mode::Idle), ("busy", Mode::Busy)]),
            "owner" => owner: MinusOneIsNone,
            "len" => let len: usize = words.len(),
            "words" => words: Rle(len),
            "extra" => extra,
            check => ensure(words.len() < 8, || "too many words".to_string()),
        }
    }

    #[test]
    fn field_lists_generate_both_directions() {
        let s = Sample {
            mode: Mode::Busy,
            owner: None,
            words: vec![3, 3, 4],
            extra: Some(9),
        };
        let json = s.encode();
        assert_eq!(
            json.render(),
            Json::object()
                .with("mode", "busy")
                .with("owner", Json::Int(-1))
                .with("len", 3u64)
                .with("words", rle_encode([3u32, 3, 4]))
                .with("extra", 9u64)
                .render()
        );
        assert_eq!(Sample::decode(&json), Ok(s));
    }

    #[test]
    fn decode_errors_name_the_key_path() {
        let bad = Json::object()
            .with("mode", "warp")
            .with("owner", 1u64)
            .with("len", 0u64)
            .with("words", Json::Array(vec![]))
            .with("extra", Json::Null);
        let err = Sample::decode(&bad).unwrap_err();
        assert_eq!(err.context, "mode: unknown tag `warp`");
        let err = get::<u8>(&Json::object().with("b", 300u64), "b").unwrap_err();
        assert_eq!(err.context, "b: expected u8");
        assert_eq!(err.within("outer").context, "outer.b: expected u8");
        let long = Json::object()
            .with("mode", "idle")
            .with("owner", 1u64)
            .with("len", 9u64)
            .with("words", rle_encode([0u32; 9]))
            .with("extra", Json::Null);
        assert_eq!(Sample::decode(&long).unwrap_err().context, "too many words");
    }
}
