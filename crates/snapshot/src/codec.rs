//! The declarative field codec: one [`Snap`] trait for values that know
//! their own encoding, [`Codec`] values for the irregular encodings, and
//! the [`snap_fields!`](crate::snap_fields) macro that turns one ordered
//! `"key" => field` list into both an encoder and a decoder.
//!
//! Bounds live in the primitives, so every struct gets them: integers are
//! range-checked, run-length arrays use checked arithmetic and never
//! allocate more than [`MAX_LEN`] elements, and nothing is sized from a
//! length that has not been checked against the data it describes.

use crate::{Json, SnapError};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Largest element count any run-length array may decode to (16 Mi): far
/// beyond every real memory or counter array, small enough that a forged
/// length cannot exhaust host memory.
pub const MAX_LEN: usize = 1 << 24;

/// A value with one canonical snapshot encoding.
pub trait Snap: Sized {
    /// Encodes the value.
    fn encode(&self) -> Json;
    /// Decodes a value produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Fails on any input `encode` cannot produce; never panics.
    fn decode(value: &Json) -> Result<Self, SnapError>;
}

/// An encoding of `T` chosen per field: run-length arrays, `-1`-as-`None`
/// ids, enum tags and the like.
pub trait Codec<T> {
    /// Encodes `value`.
    fn encode(&self, value: &T) -> Json;
    /// Decodes a value produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Fails on any input `encode` cannot produce; never panics.
    fn decode(&self, value: &Json) -> Result<T, SnapError>;
}

/// The field's own [`Snap`] encoding (the default codec).
pub struct Plain;

impl<T: Snap> Codec<T> for Plain {
    fn encode(&self, value: &T) -> Json {
        value.encode()
    }
    fn decode(&self, value: &Json) -> Result<T, SnapError> {
        T::decode(value)
    }
}

/// Reads object member `key` of `value` through `codec`, naming the key in
/// any error.
///
/// # Errors
///
/// Fails when `value` lacks `key` or the codec rejects the member.
pub fn get_with<T>(value: &Json, key: &str, codec: &impl Codec<T>) -> Result<T, SnapError> {
    let member = value
        .get(key)
        .ok_or_else(|| SnapError::new(format!("{key}: missing field")))?;
    codec.decode(member).map_err(|e| e.within(key))
}

/// Reads object member `key` of `value` through its [`Snap`] encoding.
///
/// # Errors
///
/// Fails when `value` lacks `key` or the member does not decode.
pub fn get<T: Snap>(value: &Json, key: &str) -> Result<T, SnapError> {
    get_with(value, key, &Plain)
}

/// `Ok(())` when `cond` holds, else an error with `context`.
///
/// # Errors
///
/// Fails when `cond` is false.
pub fn ensure(cond: bool, context: impl FnOnce() -> String) -> Result<(), SnapError> {
    if cond {
        Ok(())
    } else {
        Err(SnapError::new(context()))
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self) -> Json {
                Json::UInt(*self as u64)
            }
            fn decode(value: &Json) -> Result<$t, SnapError> {
                value
                    .as_u64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| SnapError::new(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);

impl Snap for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(value: &Json) -> Result<bool, SnapError> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(SnapError::new("expected boolean")),
        }
    }
}

impl Snap for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(value: &Json) -> Result<String, SnapError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| SnapError::new("expected string"))
    }
}

/// `None` is `null`.
impl<T: Snap> Snap for Option<T> {
    fn encode(&self) -> Json {
        Opt(Plain).encode(self)
    }
    fn decode(value: &Json) -> Result<Option<T>, SnapError> {
        Opt(Plain).decode(value)
    }
}

impl<T: Snap> Snap for Box<T> {
    fn encode(&self) -> Json {
        (**self).encode()
    }
    fn decode(value: &Json) -> Result<Box<T>, SnapError> {
        T::decode(value).map(Box::new)
    }
}

/// A JSON array, element by element.
impl<T: Snap> Snap for Vec<T> {
    fn encode(&self) -> Json {
        Each(Plain).encode(self)
    }
    fn decode(value: &Json) -> Result<Vec<T>, SnapError> {
        Each(Plain).decode(value)
    }
}

fn array(value: &Json) -> Result<&[Json], SnapError> {
    value
        .as_array()
        .ok_or_else(|| SnapError::new("expected array"))
}

/// `Option<T>` with `None` as `null` and `Some` through the inner codec.
pub struct Opt<C>(pub C);

impl<T, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn encode(&self, value: &Option<T>) -> Json {
        value.as_ref().map_or(Json::Null, |v| self.0.encode(v))
    }
    fn decode(&self, value: &Json) -> Result<Option<T>, SnapError> {
        match value {
            Json::Null => Ok(None),
            v => self.0.decode(v).map(Some),
        }
    }
}

/// `Box<T>` through the inner codec.
pub struct Boxed<C>(pub C);

impl<T, C: Codec<T>> Codec<Box<T>> for Boxed<C> {
    fn encode(&self, value: &Box<T>) -> Json {
        self.0.encode(value)
    }
    fn decode(&self, value: &Json) -> Result<Box<T>, SnapError> {
        self.0.decode(value).map(Box::new)
    }
}

/// A JSON array of elements, each through the inner codec.
pub struct Each<C>(pub C);

impl<C> Each<C> {
    fn encode_all<'a, T: 'a>(&self, items: impl Iterator<Item = &'a T>) -> Json
    where
        C: Codec<T>,
    {
        Json::Array(items.map(|v| self.0.encode(v)).collect())
    }

    fn decode_all<T, B: FromIterator<T>>(&self, value: &Json) -> Result<B, SnapError>
    where
        C: Codec<T>,
    {
        array(value)?
            .iter()
            .enumerate()
            .map(|(i, v)| self.0.decode(v).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

impl<T, C: Codec<T>> Codec<Vec<T>> for Each<C> {
    fn encode(&self, value: &Vec<T>) -> Json {
        self.encode_all(value.iter())
    }
    fn decode(&self, value: &Json) -> Result<Vec<T>, SnapError> {
        self.decode_all(value)
    }
}

impl<T, C: Codec<T>> Codec<VecDeque<T>> for Each<C> {
    fn encode(&self, value: &VecDeque<T>) -> Json {
        self.encode_all(value.iter())
    }
    fn decode(&self, value: &Json) -> Result<VecDeque<T>, SnapError> {
        self.decode_all(value)
    }
}

impl<T, C: Codec<T>, const N: usize> Codec<[T; N]> for Each<C> {
    fn encode(&self, value: &[T; N]) -> Json {
        self.encode_all(value.iter())
    }
    fn decode(&self, value: &Json) -> Result<[T; N], SnapError> {
        let items: Vec<T> = self.decode_all(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| SnapError::new(format!("{len} elements, expected {N}")))
    }
}

/// `Option<T>` with `None` as `-1` (task ids, bus owners, trigger slots).
pub struct MinusOneIsNone;

impl<T: Snap> Codec<Option<T>> for MinusOneIsNone {
    fn encode(&self, value: &Option<T>) -> Json {
        value.as_ref().map_or(Json::Int(-1), Snap::encode)
    }
    fn decode(&self, value: &Json) -> Result<Option<T>, SnapError> {
        match value {
            Json::Int(-1) => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

/// A fieldless enum (or any small value set) as a string tag from a fixed
/// table.
pub struct Tags<T: 'static>(pub &'static [(&'static str, T)]);

impl<T: PartialEq + Clone> Codec<T> for Tags<T> {
    fn encode(&self, value: &T) -> Json {
        let (tag, _) = self
            .0
            .iter()
            .find(|(_, v)| v == value)
            .expect("every value has a tag");
        Json::from(*tag)
    }
    fn decode(&self, value: &Json) -> Result<T, SnapError> {
        let tag = value
            .as_str()
            .ok_or_else(|| SnapError::new("expected tag string"))?;
        self.0
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| SnapError::new(format!("unknown tag `{tag}`")))
    }
}

/// A value named by a pair of functions (`name`/`from_name` style).
pub struct Named<T>(pub fn(T) -> &'static str, pub fn(&str) -> Option<T>);

impl<T: Copy> Codec<T> for Named<T> {
    fn encode(&self, value: &T) -> Json {
        Json::from((self.0)(*value))
    }
    fn decode(&self, value: &Json) -> Result<T, SnapError> {
        let name = value
            .as_str()
            .ok_or_else(|| SnapError::new("expected name string"))?;
        (self.1)(name).ok_or_else(|| SnapError::new(format!("unknown name `{name}`")))
    }
}

/// A tuple as an object with the given keys, one per element.
pub struct Tuple(pub &'static [&'static str]);

impl<A: Snap, B: Snap> Codec<(A, B)> for Tuple {
    fn encode(&self, (a, b): &(A, B)) -> Json {
        Json::Object(vec![
            (self.0[0].to_string(), a.encode()),
            (self.0[1].to_string(), b.encode()),
        ])
    }
    fn decode(&self, value: &Json) -> Result<(A, B), SnapError> {
        Ok((get(value, self.0[0])?, get(value, self.0[1])?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Codec<(A, B, C)> for Tuple {
    fn encode(&self, (a, b, c): &(A, B, C)) -> Json {
        Json::Object(vec![
            (self.0[0].to_string(), a.encode()),
            (self.0[1].to_string(), b.encode()),
            (self.0[2].to_string(), c.encode()),
        ])
    }
    fn decode(&self, value: &Json) -> Result<(A, B, C), SnapError> {
        Ok((
            get(value, self.0[0])?,
            get(value, self.0[1])?,
            get(value, self.0[2])?,
        ))
    }
}

/// A map as an array of objects in ascending key order (hash-map
/// iteration order must never reach a snapshot): each object is the
/// value's own encoding with the key prepended under the given name.
pub struct SortedMap(pub &'static str);

impl<K, V> Codec<HashMap<K, V>> for SortedMap
where
    K: Snap + Ord + Hash + Copy,
    V: Snap,
{
    fn encode(&self, value: &HashMap<K, V>) -> Json {
        let mut keys: Vec<K> = value.keys().copied().collect();
        keys.sort_unstable();
        Json::Array(
            keys.iter()
                .map(|k| {
                    let mut pairs = vec![(self.0.to_string(), k.encode())];
                    if let Json::Object(rest) = value[k].encode() {
                        pairs.extend(rest);
                    }
                    Json::Object(pairs)
                })
                .collect(),
        )
    }
    fn decode(&self, value: &Json) -> Result<HashMap<K, V>, SnapError> {
        array(value)?
            .iter()
            .map(|entry| Ok((get(entry, self.0)?, V::decode(entry)?)))
            .collect()
    }
}

/// A word that fits the run-length codec.
pub trait RleWord: Copy + Default + PartialEq + Into<u64> + TryFrom<u64> {}

impl RleWord for u8 {}
impl RleWord for u32 {}
impl RleWord for u64 {}

/// Run-length array of exactly `.0` words: a flat `[len0, val0, len1,
/// val1, ...]` array, so mostly-uniform payloads (zeroed memories, cold
/// decode bitmaps) collapse to a few runs.
pub struct Rle(pub usize);

/// Run-length array of any length up to [`MAX_LEN`], for arrays whose
/// length is only checked after decoding.
pub struct RleAny;

/// Encodes `words` as runs.
pub fn rle_encode<W: RleWord>(words: impl IntoIterator<Item = W>) -> Json {
    let mut runs = Vec::new();
    let mut current: Option<(W, u64)> = None;
    for w in words {
        match &mut current {
            Some((v, n)) if *v == w => *n += 1,
            _ => {
                if let Some((v, n)) = current {
                    runs.push(Json::UInt(n));
                    runs.push(Json::UInt(v.into()));
                }
                current = Some((w, 1));
            }
        }
    }
    if let Some((v, n)) = current {
        runs.push(Json::UInt(n));
        runs.push(Json::UInt(v.into()));
    }
    Json::Array(runs)
}

/// Decodes runs into exactly `expect` words (any count up to [`MAX_LEN`]
/// when `None`). The total is summed with checked arithmetic before any
/// allocation, so a forged run length fails instead of allocating.
///
/// # Errors
///
/// Fails on a malformed run array, a value that does not fit `W`, or a
/// total that differs from `expect` or exceeds [`MAX_LEN`].
pub fn rle_decode<W: RleWord>(value: &Json, expect: Option<usize>) -> Result<Vec<W>, SnapError> {
    let runs = array(value)?;
    if runs.len() % 2 != 0 {
        return Err(SnapError::new("odd run-length array"));
    }
    let limit = expect.unwrap_or(MAX_LEN).min(MAX_LEN);
    let mut total = 0usize;
    for pair in runs.chunks_exact(2) {
        let len = pair[0]
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SnapError::new("run length not an integer"))?;
        total = total
            .checked_add(len)
            .filter(|&t| t <= limit)
            .ok_or_else(|| SnapError::new(format!("runs exceed {limit} words")))?;
    }
    if expect.is_some_and(|n| n != total) {
        return Err(SnapError::new(format!(
            "decoded {total} words, expected {}",
            expect.unwrap_or(0)
        )));
    }
    // Zeroed allocation, then fill only the non-zero runs: memories are
    // mostly zero.
    let mut words = vec![W::default(); total];
    let mut at = 0;
    for pair in runs.chunks_exact(2) {
        let val = pair[1]
            .as_u64()
            .and_then(|v| W::try_from(v).ok())
            .ok_or_else(|| SnapError::new("run value out of range"))?;
        // Lengths were validated above; `as_u64` cannot fail here.
        let len = pair[0].as_u64().unwrap_or(0) as usize;
        if val != W::default() {
            words[at..at + len].fill(val);
        }
        at += len;
    }
    Ok(words)
}

impl<W: RleWord> Codec<Vec<W>> for Rle {
    fn encode(&self, value: &Vec<W>) -> Json {
        rle_encode(value.iter().copied())
    }
    fn decode(&self, value: &Json) -> Result<Vec<W>, SnapError> {
        rle_decode(value, Some(self.0))
    }
}

impl<W: RleWord> Codec<VecDeque<W>> for Rle {
    fn encode(&self, value: &VecDeque<W>) -> Json {
        rle_encode(value.iter().copied())
    }
    fn decode(&self, value: &Json) -> Result<VecDeque<W>, SnapError> {
        rle_decode(value, Some(self.0)).map(VecDeque::from)
    }
}

impl<W: RleWord, const N: usize> Codec<[W; N]> for Rle {
    fn encode(&self, value: &[W; N]) -> Json {
        rle_encode(value.iter().copied())
    }
    fn decode(&self, value: &Json) -> Result<[W; N], SnapError> {
        let words = rle_decode(value, Some(N))?;
        let mut out = [W::default(); N];
        out.copy_from_slice(&words);
        Ok(out)
    }
}

impl<W: RleWord> Codec<Vec<W>> for RleAny {
    fn encode(&self, value: &Vec<W>) -> Json {
        rle_encode(value.iter().copied())
    }
    fn decode(&self, value: &Json) -> Result<Vec<W>, SnapError> {
        rle_decode(value, None)
    }
}

/// Generates a struct's snapshot encoder and decoder from one ordered
/// field list, so the two directions cannot drift.
///
/// Two forms: `impl Snap for Type { ... }` implements [`Snap`];
/// `pub fn encode_name, pub fn decode_name(ctx: &Ctx, ...) for Type { ... }`
/// generates inherent methods that both take context arguments (state
/// the decoder needs but the document does not carry, such as timing
/// parameters).
///
/// Entries, in document order (each ends with a comma):
///
/// * `"key" => field` — the field through its [`Snap`] encoding;
/// * `"key" => field: codec` — the field through a [`Codec`] value;
/// * `"key" => let name: Ty = expr` (optionally `; codec`) — a derived
///   value (a count, a split-out array): encoded from `expr`, decoded
///   into the local `name` that later entries may use;
/// * `.. => field` — the field's own object members, inlined;
/// * `_ => field = expr` — a field outside the document, built by `expr`
///   when decoding (wiring, or a field assembled from derived values);
/// * `check => expr` — a `Result<(), SnapError>` evaluated after the
///   object is built, with every field in scope by reference;
///   `check(name) => expr` also binds the whole object as `name`.
///
/// Every field must appear exactly once: the encoder destructures the
/// struct without `..`, so a new field that is not listed fails to
/// compile. Codec expressions and `let` expressions see the fields by
/// reference when encoding, and the already-decoded fields when
/// decoding; context arguments are in scope in both directions (a field
/// of the same name shadows its argument when encoding).
#[macro_export]
macro_rules! snap_fields {
    (impl Snap for $ty:ident { $($body:tt)* }) => {
        $crate::snap_fields!(@munch (trait $ty) (__pairs, __value, __out) [] [] [] [] [] $($body)*);
    };
    ($evis:vis fn $enc:ident, $dvis:vis fn $dec:ident ($($arg:ident : $argty:ty),* $(,)?) for $ty:ident { $($body:tt)* }) => {
        $crate::snap_fields!(@munch (inherent $ty, $evis $enc, $dvis $dec, ($($arg: $argty),*)) (__pairs, __value, __out) [] [] [] [] [] $($body)*);
    };

    // Accumulators: [pattern fields] [encode statements] [decode
    // statements] [constructor fields] [checks].
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        $key:literal => let $name:ident : $t:ty = $e:expr ; $codec:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)*]
            [$($enc)* let $name: $t = $e; $p.push(($key.to_string(), $crate::Codec::encode(&$codec, &$name)));]
            [$($dec)* let $name: $t = $crate::get_with($v, $key, &$codec)?;]
            [$($ctor)*] [$($chk)*] $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        $key:literal => let $name:ident : $t:ty = $e:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)*] [$($enc)*] [$($dec)*] [$($ctor)*] [$($chk)*]
            $key => let $name: $t = $e; $crate::Plain, $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        $key:literal => $f:ident : $codec:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)* $f,]
            [$($enc)* $p.push(($key.to_string(), $crate::Codec::encode(&$codec, $f)));]
            [$($dec)* let $f = $crate::get_with($v, $key, &$codec)?;]
            [$($ctor)* $f,] [$($chk)*] $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        $key:literal => $f:ident, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)*] [$($enc)*] [$($dec)*] [$($ctor)*] [$($chk)*]
            $key => $f: $crate::Plain, $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        .. => $f:ident, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)* $f,]
            [$($enc)* if let $crate::Json::Object(inner) = $crate::Snap::encode($f) { $p.extend(inner); }]
            [$($dec)* let $f = $crate::Snap::decode($v)?;]
            [$($ctor)* $f,] [$($chk)*] $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        _ => $f:ident = $e:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)* $f,] [$($enc)* let _ = $f;]
            [$($dec)* let $f = $e;] [$($ctor)* $f,] [$($chk)*] $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        check => $e:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)*] [$($enc)*] [$($dec)*] [$($ctor)*] [$($chk)* $e?;] $($rest)*);
    };
    (@munch $h:tt ($p:ident, $v:ident, $o:ident) [$($pat:tt)*] [$($enc:tt)*] [$($dec:tt)*] [$($ctor:tt)*] [$($chk:tt)*]
        check($whole:ident) => $e:expr, $($rest:tt)*) => {
        $crate::snap_fields!(@munch $h ($p, $v, $o) [$($pat)*] [$($enc)*] [$($dec)*] [$($ctor)*]
            [$($chk)* { let $whole = &$o; $e?; }] $($rest)*);
    };

    (@munch (trait $ty:ident) $pv:tt
        [$($pat:tt)*] [$($enc_s:tt)*] [$($dec_s:tt)*] [$($ctor:tt)*] [$($chk:tt)*]) => {
        impl $crate::Snap for $ty {
            $crate::snap_fields!(@fns (encode, decode, (), $ty) $pv [$($pat)*] [$($enc_s)*] [$($dec_s)*] [$($ctor)*] [$($chk)*]);
        }
    };
    (@munch (inherent $ty:ident, $evis:vis $enc:ident, $dvis:vis $dec:ident, ($($arg:ident : $argty:ty),*)) $pv:tt
        [$($pat:tt)*] [$($enc_s:tt)*] [$($dec_s:tt)*] [$($ctor:tt)*] [$($chk:tt)*]) => {
        impl $ty {
            $crate::snap_fields!(@fns ($evis $enc, $dvis $dec, ($($arg: $argty),*), $ty) $pv [$($pat)*] [$($enc_s)*] [$($dec_s)*] [$($ctor)*] [$($chk)*]);
        }
    };

    (@fns ($evis:vis $enc:ident, $dvis:vis $dec:ident, ($($arg:ident : $argty:ty),*), $ty:ident) ($p:ident, $v:ident, $o:ident)
        [$($pat:tt)*] [$($enc_s:tt)*] [$($dec_s:tt)*] [$($ctor:tt)*] [$($chk:tt)*]) => {
        /// Encodes this value as a snapshot object (field codec generated
        /// by `snap_fields!`).
        // Codec expressions are shared with the decoder, where fields are
        // owned: a borrow that is needless here is needed there.
        #[allow(clippy::needless_borrow)]
        $evis fn $enc(&self $(, $arg: $argty)*) -> $crate::Json {
            let _ = ($($arg,)*);
            let $ty { $($pat)* } = self;
            let mut $p: Vec<(String, $crate::Json)> = Vec::new();
            $($enc_s)*
            $crate::Json::Object($p)
        }

        /// Decodes a value from its snapshot object, always building a new
        /// one (field codec generated by `snap_fields!`).
        ///
        /// # Errors
        ///
        /// Fails on a missing or malformed field, or a failed consistency
        /// check; never panics.
        $dvis fn $dec($v: &$crate::Json $(, $arg: $argty)*) -> Result<Self, $crate::SnapError> {
            $($dec_s)*
            let $o = $ty { $($ctor)* };
            #[allow(unused_variables)]
            let $ty { $($pat)* } = &$o;
            $($chk)*
            Ok($o)
        }
    };
}
