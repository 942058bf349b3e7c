//! FFS-like self-describing binary marshaling.
//!
//! Wire layout of an encoded record:
//!
//! ```text
//! [MAGIC u32] [field_count u32] then per field:
//!   [name_len u16][name bytes][type_tag u8][payload]
//! ```
//!
//! Arrays carry a `u64` element count; strings and byte arrays a `u64`
//! length; nested records recurse. All integers little-endian. The format
//! is self-describing: decoding requires no out-of-band schema, which is
//! what lets FlexIO's handshake messages evolve without lockstep upgrades
//! on both sides (the property FFS provides the real system).
//!
//! # Packed arrays
//!
//! Array payloads are encoded as one contiguous little-endian byte run
//! (tags [`TAG_PACKED_F64`]..[`TAG_PACKED_I64`] below): on little-endian
//! targets the element slice is reinterpreted as bytes and appended with a
//! single bulk copy, with a chunked per-element fallback elsewhere. The
//! original per-element tags (5, 6, 9) remain decodable — the decoder
//! treats both tag families identically; `tests/wire_compat.rs` keeps a
//! generator of such old streams to hold it to that.
//!
//! Decoding has a zero-copy mode: [`Record::decode_leased`] takes the
//! receive buffer (a [`Lease`] on wherever the transport received into) and
//! returns arrays of at least [`ZERO_COPY_MIN_BYTES`] as
//! [`FieldValue::Packed`] views — an `offset/len` window into the leased
//! buffer — so large payloads are never re-vec'd at decode time. The
//! buffer goes home when the last view into it drops. A view whose bytes
//! sit on an 8-byte boundary of a little-endian target can be borrowed as
//! typed elements where it lies ([`PackedArray::as_f64s`] and friends);
//! otherwise converting it to owned element storage
//! ([`PackedArray::to_f64_vec`] and friends) is the single bulk copy that
//! hands the data to the application.

use std::borrow::Cow;
use std::sync::Arc;

use shm::Lease;

const MAGIC: u32 = 0x4646_5331; // "FFS1"

const TAG_I64: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_F64_ARRAY: u8 = 5;
const TAG_U64_ARRAY: u8 = 6;
const TAG_BYTES: u8 = 7;
const TAG_RECORD: u8 = 8;
const TAG_I64_ARRAY: u8 = 9;
const TAG_PACKED_F64: u8 = 10;
const TAG_PACKED_U64: u8 = 11;
const TAG_PACKED_I64: u8 = 12;

/// Payloads at least this large decode as zero-copy [`FieldValue::Packed`]
/// views under [`Record::decode_leased`], and encode as standalone borrowed
/// segments under [`Record::encode_segments`]. Smaller payloads are copied:
/// below this size the bookkeeping costs more than the memcpy it saves.
/// Tied to the shm channel's bulk threshold, so the segment borrowed here
/// is the one the pooled path puts on an 8-byte boundary.
pub const ZERO_COPY_MIN_BYTES: usize = shm::channel::BULK_SEGMENT_MIN;

/// Bulk little-endian conversions between element slices and wire bytes.
///
/// On little-endian targets the slice-to-bytes direction borrows (a
/// reinterpret, no copy) and the bytes-to-slice direction is a borrow when
/// the bytes are aligned for the element and a single `memcpy` otherwise;
/// big-endian targets fall back to per-element conversion.
pub mod le {
    use std::borrow::Cow;

    macro_rules! le_impl {
        ($as_bytes:ident, $as_elems:ident, $to_vec:ident, $copy_into:ident, $ty:ty) => {
            /// View an element slice as its little-endian wire bytes.
            pub fn $as_bytes(v: &[$ty]) -> Cow<'_, [u8]> {
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: the element type has no padding, every byte is
                    // initialized, and u8 has alignment 1, so reinterpreting
                    // the slice as `size_of_val(v)` bytes is sound.
                    Cow::Borrowed(unsafe {
                        std::slice::from_raw_parts(
                            v.as_ptr() as *const u8,
                            std::mem::size_of_val(v),
                        )
                    })
                }
                #[cfg(not(target_endian = "little"))]
                {
                    let mut out = Vec::with_capacity(std::mem::size_of_val(v));
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                    Cow::Owned(out)
                }
            }

            /// View a little-endian byte run as elements where it lies:
            /// `Some` on a little-endian target when `src` starts on an
            /// element-aligned address and holds a whole number of
            /// elements, `None` otherwise (copy with the `bytes_to_*`
            /// converter instead).
            pub fn $as_elems(src: &[u8]) -> Option<&[$ty]> {
                const W: usize = std::mem::size_of::<$ty>();
                #[cfg(target_endian = "little")]
                {
                    let aligned =
                        (src.as_ptr() as usize).is_multiple_of(std::mem::align_of::<$ty>());
                    if !aligned || !src.len().is_multiple_of(W) {
                        return None;
                    }
                    // SAFETY: the pointer is aligned for the element type
                    // and the length is a whole number of elements (both
                    // checked above); every bit pattern is a valid element;
                    // the bytes are initialized and stay borrowed (shared,
                    // so unmodified) for the returned lifetime; and on this
                    // target the wire order is the native order.
                    Some(unsafe {
                        std::slice::from_raw_parts(src.as_ptr() as *const $ty, src.len() / W)
                    })
                }
                #[cfg(not(target_endian = "little"))]
                {
                    let _ = (src, W);
                    None
                }
            }

            /// Decode a little-endian byte run into a fresh vector.
            ///
            /// Panics if `src.len()` is not a multiple of the element width.
            pub fn $to_vec(src: &[u8]) -> Vec<$ty> {
                const W: usize = std::mem::size_of::<$ty>();
                assert_eq!(src.len() % W, 0, "byte run not a whole number of elements");
                // `vec![0; n]` uses a zeroed allocation, so the only data
                // touch is the copy below.
                let mut out = vec![<$ty>::default(); src.len() / W];
                $copy_into(src, &mut out);
                out
            }

            /// Copy a little-endian byte run over an existing slice.
            ///
            /// Panics unless `src.len() == dst.len() * size_of::<elem>()`.
            pub fn $copy_into(src: &[u8], dst: &mut [$ty]) {
                const W: usize = std::mem::size_of::<$ty>();
                assert_eq!(src.len(), dst.len() * W, "byte run / slice length mismatch");
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: same representation argument as `$as_bytes`,
                    // and every element bit pattern is valid for the type.
                    unsafe {
                        std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, src.len())
                            .copy_from_slice(src);
                    }
                }
                #[cfg(not(target_endian = "little"))]
                for (d, chunk) in dst.iter_mut().zip(src.chunks_exact(W)) {
                    *d = <$ty>::from_le_bytes(chunk.try_into().unwrap());
                }
            }
        };
    }

    le_impl!(f64s_as_bytes, bytes_as_f64s, bytes_to_f64s, copy_bytes_into_f64s, f64);
    le_impl!(u64s_as_bytes, bytes_as_u64s, bytes_to_u64s, copy_bytes_into_u64s, u64);
    le_impl!(i64s_as_bytes, bytes_as_i64s, bytes_to_i64s, copy_bytes_into_i64s, i64);
}

/// Element type of a [`PackedArray`] view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedDtype {
    /// IEEE-754 doubles.
    F64,
    /// Unsigned 64-bit integers.
    U64,
    /// Signed 64-bit integers.
    I64,
    /// Raw bytes.
    U8,
}

impl PackedDtype {
    /// Wire width of one element.
    pub fn elem_bytes(self) -> usize {
        match self {
            PackedDtype::U8 => 1,
            _ => 8,
        }
    }
}

/// A zero-copy window into a leased receive buffer holding a contiguous
/// little-endian array payload.
///
/// Produced by [`Record::decode_leased`] for payloads of at least
/// [`ZERO_COPY_MIN_BYTES`]. Cloning is cheap (an `Arc` bump); the
/// underlying buffer goes home (a pool buffer to its free list) when the
/// last view is dropped. The bytes are immutable: borrow them as typed
/// elements with the `as_*s` accessors when they lie aligned, materialize
/// owned elements with the `to_*_vec` converters when they do not or when
/// mutation is needed.
#[derive(Clone)]
pub struct PackedArray {
    dtype: PackedDtype,
    buf: Arc<Lease>,
    offset: usize,
    byte_len: usize,
}

impl PackedArray {
    /// A view of `byte_len` bytes at `offset` into `buf`.
    ///
    /// Panics if the window is out of bounds or not a whole number of
    /// elements.
    pub fn view(dtype: PackedDtype, buf: Arc<Lease>, offset: usize, byte_len: usize) -> Self {
        assert!(offset + byte_len <= buf.len(), "packed view out of bounds");
        assert_eq!(byte_len % dtype.elem_bytes(), 0, "packed view splits an element");
        PackedArray { dtype, buf, offset, byte_len }
    }

    fn from_owned_bytes(dtype: PackedDtype, bytes: Vec<u8>) -> Self {
        let byte_len = bytes.len();
        PackedArray { dtype, buf: Arc::new(bytes.into()), offset: 0, byte_len }
    }

    /// Pack an `f64` slice into a standalone buffer (one bulk copy).
    pub fn from_f64s(v: &[f64]) -> Self {
        Self::from_owned_bytes(PackedDtype::F64, le::f64s_as_bytes(v).into_owned())
    }

    /// Pack a `u64` slice into a standalone buffer (one bulk copy).
    pub fn from_u64s(v: &[u64]) -> Self {
        Self::from_owned_bytes(PackedDtype::U64, le::u64s_as_bytes(v).into_owned())
    }

    /// Pack an `i64` slice into a standalone buffer (one bulk copy).
    pub fn from_i64s(v: &[i64]) -> Self {
        Self::from_owned_bytes(PackedDtype::I64, le::i64s_as_bytes(v).into_owned())
    }

    /// Pack raw bytes into a standalone buffer (one bulk copy).
    pub fn from_bytes(v: &[u8]) -> Self {
        Self::from_owned_bytes(PackedDtype::U8, v.to_vec())
    }

    /// Element type of the view.
    pub fn dtype(&self) -> PackedDtype {
        self.dtype
    }

    /// Number of elements in the view.
    pub fn elem_count(&self) -> usize {
        self.byte_len / self.dtype.elem_bytes()
    }

    /// Length of the window in bytes.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// The raw little-endian wire bytes of the payload.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.offset..self.offset + self.byte_len]
    }

    /// Whether the elements can be read where they lie: always for bytes;
    /// for the 8-byte types, when the target is little-endian and the
    /// payload starts on an 8-byte boundary (the `as_*s` accessors then
    /// return `Some`).
    pub fn in_place(&self) -> bool {
        self.dtype == PackedDtype::U8 || le::bytes_as_u64s(self.bytes()).is_some()
    }

    /// Borrow the payload as `f64` elements where it lies, if it lies
    /// aligned (see [`Self::in_place`]). Panics unless `dtype` is `F64`.
    pub fn as_f64s(&self) -> Option<&[f64]> {
        assert_eq!(self.dtype, PackedDtype::F64, "packed view is not f64");
        le::bytes_as_f64s(self.bytes())
    }

    /// Borrow the payload as `u64` elements (see [`Self::as_f64s`]).
    /// Panics unless `dtype` is `U64`.
    pub fn as_u64s(&self) -> Option<&[u64]> {
        assert_eq!(self.dtype, PackedDtype::U64, "packed view is not u64");
        le::bytes_as_u64s(self.bytes())
    }

    /// Materialize owned `f64` elements. Panics unless `dtype` is `F64`.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        assert_eq!(self.dtype, PackedDtype::F64, "packed view is not f64");
        le::bytes_to_f64s(self.bytes())
    }

    /// Materialize owned `u64` elements. Panics unless `dtype` is `U64`.
    pub fn to_u64_vec(&self) -> Vec<u64> {
        assert_eq!(self.dtype, PackedDtype::U64, "packed view is not u64");
        le::bytes_to_u64s(self.bytes())
    }

    /// Materialize owned `i64` elements. Panics unless `dtype` is `I64`.
    pub fn to_i64_vec(&self) -> Vec<i64> {
        assert_eq!(self.dtype, PackedDtype::I64, "packed view is not i64");
        le::bytes_to_i64s(self.bytes())
    }

    /// Materialize an owned byte vector. Panics unless `dtype` is `U8`.
    pub fn to_byte_vec(&self) -> Vec<u8> {
        assert_eq!(self.dtype, PackedDtype::U8, "packed view is not bytes");
        self.bytes().to_vec()
    }

    /// One `f64` element by index, decoded in place. Panics unless
    /// `dtype` is `F64` and `i` is in bounds.
    pub fn f64_at(&self, i: usize) -> f64 {
        assert_eq!(self.dtype, PackedDtype::F64, "packed view is not f64");
        let b = self.bytes();
        f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap())
    }

    /// One `u64` element by index (see [`Self::f64_at`]).
    pub fn u64_at(&self, i: usize) -> u64 {
        assert_eq!(self.dtype, PackedDtype::U64, "packed view is not u64");
        let b = self.bytes();
        u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap())
    }

    /// One `i64` element by index (see [`Self::f64_at`]).
    pub fn i64_at(&self, i: usize) -> i64 {
        assert_eq!(self.dtype, PackedDtype::I64, "packed view is not i64");
        let b = self.bytes();
        i64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap())
    }
}

impl std::fmt::Debug for PackedArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedArray")
            .field("dtype", &self.dtype)
            .field("elems", &self.elem_count())
            .field("offset", &self.offset)
            .finish()
    }
}

impl PartialEq for PackedArray {
    fn eq(&self, other: &Self) -> bool {
        self.dtype == other.dtype && self.bytes() == other.bytes()
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// IEEE-754 double.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Array of doubles (field data travels as these).
    F64Array(Vec<f64>),
    /// Array of unsigned integers (shape/offset vectors).
    U64Array(Vec<u64>),
    /// Array of signed integers.
    I64Array(Vec<i64>),
    /// Raw bytes (pre-packed payloads).
    Bytes(Vec<u8>),
    /// Nested record.
    Record(Record),
    /// Zero-copy view into a shared receive buffer (see [`PackedArray`]).
    Packed(PackedArray),
}

impl FieldValue {
    /// The value as a `u64`: a `U64`, or an `I64` that is not negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

/// Error decoding a byte stream into a [`Record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream shorter than a field required (including declared array
    /// lengths that exceed the remaining bytes).
    Truncated,
    /// Magic number mismatch — not an FFS1 stream.
    BadMagic,
    /// Unknown type tag.
    UnknownTag(u8),
    /// Field name or string payload was not UTF-8.
    BadUtf8,
    /// Records nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "stream truncated"),
            DecodeError::BadMagic => write!(f, "bad magic (not an FFS1 stream)"),
            DecodeError::UnknownTag(t) => write!(f, "unknown type tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in stream"),
            DecodeError::TooDeep => write!(f, "records nested deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One segment of a scatter-gather encoded record: metadata runs are owned,
/// large array payloads borrow straight from the record.
#[derive(Debug)]
pub enum EncSegment<'a> {
    /// Accumulated header/metadata bytes.
    Owned(Vec<u8>),
    /// A large payload borrowed from the record being encoded.
    Borrowed(&'a [u8]),
}

impl EncSegment<'_> {
    /// The segment's bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            EncSegment::Owned(v) => v,
            EncSegment::Borrowed(b) => b,
        }
    }
}

/// A record encoded as a sequence of segments whose concatenation equals
/// [`Record::encode`]. Pairs with vectored transport sends: large array
/// payloads are borrowed, so no flat copy of the message is ever built on
/// the send path.
#[derive(Debug)]
pub struct EncodedRecord<'a> {
    segments: Vec<EncSegment<'a>>,
}

impl<'a> EncodedRecord<'a> {
    /// The segments in wire order.
    pub fn segments(&self) -> &[EncSegment<'a>] {
        &self.segments
    }

    /// Segment byte slices in wire order (the shape vectored sends take).
    pub fn as_slices(&self) -> Vec<&[u8]> {
        self.segments.iter().map(|s| s.as_slice()).collect()
    }

    /// Total encoded length.
    pub fn total_len(&self) -> usize {
        self.segments.iter().map(|s| s.as_slice().len()).sum()
    }

    /// Flatten into one buffer (equals [`Record::encode`] output).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for s in &self.segments {
            out.extend_from_slice(s.as_slice());
        }
        out
    }
}

/// Where one walk of the wire layout goes: the flat buffer of
/// [`Record::encode`], the segments of [`Record::encode_segments`] or the
/// byte count of [`Record::encoded_len`].
trait Sink<'a> {
    fn put(&mut self, bytes: &[u8]);

    /// An array payload, which a segment writer may borrow in place.
    fn put_payload(&mut self, bytes: &'a [u8]) {
        self.put(bytes);
    }
}

impl Sink<'_> for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes a walk would write.
struct ByteCount(usize);

impl Sink<'_> for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Accumulates owned metadata runs and flushes them whenever a large
/// borrowed payload is interleaved.
struct SegWriter<'a> {
    segments: Vec<EncSegment<'a>>,
    cur: Vec<u8>,
}

impl<'a> Sink<'a> for SegWriter<'a> {
    fn put(&mut self, bytes: &[u8]) {
        self.cur.extend_from_slice(bytes);
    }

    fn put_payload(&mut self, bytes: &'a [u8]) {
        if bytes.len() >= ZERO_COPY_MIN_BYTES {
            if !self.cur.is_empty() {
                self.segments.push(EncSegment::Owned(std::mem::take(&mut self.cur)));
            }
            self.segments.push(EncSegment::Borrowed(bytes));
        } else {
            self.cur.extend_from_slice(bytes);
        }
    }
}

/// Field names of up to this many bytes are held in the record's field
/// vector itself (the 24 bytes a `String` header takes); longer ones go
/// on the heap.
const INLINE_NAME: usize = 22;

/// A field name: inline when short (every name the step protocol uses),
/// boxed otherwise.
#[derive(Clone)]
enum Name {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    fn new(s: &str) -> Name {
        if s.len() > INLINE_NAME {
            return Name::Heap(s.into());
        }
        let mut bytes = [0; INLINE_NAME];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name::Inline { len: s.len() as u8, bytes }
    }

    fn as_str(&self) -> &str {
        match self {
            // SAFETY: the bytes were copied whole from a `&str` in `new`,
            // so they are valid UTF-8.
            Name::Inline { len, bytes } => unsafe {
                std::str::from_utf8_unchecked(&bytes[..usize::from(*len)])
            },
            Name::Heap(s) => s,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Room for a list-item key on the stack: a prefix and up to two indices
/// of any width.
const ITEM_KEY_CAP: usize = 64;

/// Call `f` with the key of a list item, `<prefix>.<i>` (`<prefix>.<i>.<j>`
/// for two indices, and so on): the one place the convention is spelled
/// out. The key is formatted on the stack, and on the heap only when it
/// does not fit there.
fn with_item_key<R>(prefix: &str, index: &[usize], f: impl FnOnce(&str) -> R) -> R {
    use std::io::Write;
    let mut buf = [0u8; ITEM_KEY_CAP];
    let mut rest = &mut buf[..];
    let fits = rest.write_all(prefix.as_bytes()).is_ok()
        && index.iter().all(|i| write!(rest, ".{i}").is_ok());
    if fits {
        let len = ITEM_KEY_CAP - rest.len();
        // Only a `&str` and ASCII digits and dots were written.
        return f(std::str::from_utf8(&buf[..len]).expect("key bytes are UTF-8"));
    }
    let mut key = String::from(prefix);
    for i in index {
        key.push('.');
        key.push_str(&i.to_string());
    }
    f(&key)
}

/// An ordered collection of named, typed fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(Name, FieldValue)>,
}

/// A parser that consumes a record (moving its strings and vectors out)
/// also takes a borrowed one, which it clones first.
impl From<&Record> for Record {
    fn from(r: &Record) -> Record {
        r.clone()
    }
}

impl Record {
    /// Empty record.
    pub fn new() -> Record {
        Record::default()
    }

    /// Empty record with room for `fields` fields, so building it makes
    /// one allocation.
    pub fn with_capacity(fields: usize) -> Record {
        Record { fields: Vec::with_capacity(fields) }
    }

    /// Builder-style field append.
    pub fn with(mut self, name: &str, value: FieldValue) -> Record {
        self.set(name, value);
        self
    }

    /// Insert or replace a field.
    pub fn set(&mut self, name: &str, value: FieldValue) {
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| n.as_str() == name) {
            slot.1 = value;
        } else {
            self.fields.push((Name::new(name), value));
        }
    }

    /// Insert or replace item `index` of the list `prefix`: the field
    /// `<prefix>.<i>` (`<prefix>.<i>.<j>` for a two-level index).
    pub fn set_item(&mut self, prefix: &str, index: &[usize], value: FieldValue) {
        with_item_key(prefix, index, |key| self.set(key, value));
    }

    /// Look up item `index` of the list `prefix` (see [`Record::set_item`]).
    pub fn get_item(&self, prefix: &str, index: &[usize]) -> Option<&FieldValue> {
        with_item_key(prefix, index, |key| self.get(key))
    }

    /// Remove item `index` of the list `prefix` and return its value.
    pub fn take_item(&mut self, prefix: &str, index: &[usize]) -> Option<FieldValue> {
        with_item_key(prefix, index, |key| self.take(key))
    }

    /// Remove a field and return its value; the other fields keep their
    /// order.
    pub fn take(&mut self, name: &str) -> Option<FieldValue> {
        let at = self.fields.iter().position(|(n, _)| n.as_str() == name)?;
        Some(self.fields.remove(at).1)
    }

    /// Remove the first field named `name` if `is` holds for its value.
    fn take_matching(&mut self, name: &str, is: fn(&FieldValue) -> bool) -> Option<FieldValue> {
        let at = self.fields.iter().position(|(n, _)| n.as_str() == name)?;
        is(&self.fields[at].1).then(|| self.fields.remove(at).1)
    }

    /// Remove a string field and return it; a field of another type stays.
    pub fn take_str(&mut self, name: &str) -> Option<String> {
        match self.take_matching(name, |v| matches!(v, FieldValue::Str(_)))? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Remove a `u64` array field and return it; a field of another type
    /// stays.
    pub fn take_u64_array(&mut self, name: &str) -> Option<Vec<u64>> {
        match self.take_matching(name, |v| matches!(v, FieldValue::U64Array(_)))? {
            FieldValue::U64Array(v) => Some(v),
            _ => None,
        }
    }

    /// Remove a nested-record field and return it; a field of another
    /// type stays.
    pub fn take_record(&mut self, name: &str) -> Option<Record> {
        match self.take_matching(name, |v| matches!(v, FieldValue::Record(_)))? {
            FieldValue::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Look up a field by name.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n.as_str() == name).map(|(_, v)| v)
    }

    /// Field count.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Typed accessor: `i64` (accepts `U64` that fits).
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            FieldValue::I64(v) => Some(*v),
            FieldValue::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Typed accessor: `u64` (accepts non-negative `I64`).
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name)?.as_u64()
    }

    /// Typed accessor: `f64`.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Typed accessor: string slice.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Typed accessor: `u64` array.
    pub fn get_u64_array(&self, name: &str) -> Option<&[u64]> {
        match self.get(name)? {
            FieldValue::U64Array(v) => Some(v),
            _ => None,
        }
    }

    /// Typed accessor: `f64` array.
    pub fn get_f64_array(&self, name: &str) -> Option<&[f64]> {
        match self.get(name)? {
            FieldValue::F64Array(v) => Some(v),
            _ => None,
        }
    }

    /// Typed accessor: raw bytes.
    pub fn get_bytes(&self, name: &str) -> Option<&[u8]> {
        match self.get(name)? {
            FieldValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Typed accessor: nested record.
    pub fn get_record(&self, name: &str) -> Option<&Record> {
        match self.get(name)? {
            FieldValue::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Typed accessor: zero-copy packed view.
    pub fn get_packed(&self, name: &str) -> Option<&PackedArray> {
        match self.get(name)? {
            FieldValue::Packed(p) => Some(p),
            _ => None,
        }
    }

    /// Exact byte length [`Record::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        let mut n = ByteCount(0);
        self.walk(&mut n);
        n.0
    }

    /// Encode to the self-describing wire format (packed array tags; array
    /// payloads appended with bulk copies).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.walk(&mut out);
        out
    }

    /// Encode as scatter-gather segments: metadata accumulates in owned
    /// runs while array payloads of at least [`ZERO_COPY_MIN_BYTES`] are
    /// borrowed in place. The concatenation of the segments is identical to
    /// [`Record::encode`] output.
    pub fn encode_segments(&self) -> EncodedRecord<'_> {
        let mut w = SegWriter { segments: Vec::new(), cur: Vec::with_capacity(256) };
        self.walk(&mut w);
        if !w.cur.is_empty() {
            w.segments.push(EncSegment::Owned(w.cur));
        }
        EncodedRecord { segments: w.segments }
    }

    /// The one walk of the wire layout (see the module docs).
    fn walk<'a>(&'a self, w: &mut impl Sink<'a>) {
        w.put(&MAGIC.to_le_bytes());
        self.walk_body(w);
    }

    fn walk_body<'a>(&'a self, w: &mut impl Sink<'a>) {
        w.put(&(self.fields.len() as u32).to_le_bytes());
        for (name, value) in &self.fields {
            let name = name.as_str();
            w.put(&(name.len() as u16).to_le_bytes());
            w.put(name.as_bytes());
            walk_value(value, w);
        }
    }

    /// Decode from the wire format into owned field storage.
    pub fn decode(bytes: &[u8]) -> Result<Record, DecodeError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        if cursor.u32()? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        decode_body(&mut cursor, None, 0)
    }

    /// Decode from a leased receive buffer; array payloads of at least
    /// [`ZERO_COPY_MIN_BYTES`] become [`FieldValue::Packed`] views into
    /// `buf` instead of owned vectors, so no payload-sized allocation or
    /// copy happens here. The lease lives as long as any such view does; a
    /// record without one releases it on return.
    pub fn decode_leased(buf: Lease) -> Result<Record, DecodeError> {
        let buf = Arc::new(buf);
        let mut cursor = Cursor { bytes: &buf, pos: 0 };
        if cursor.u32()? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        decode_body(&mut cursor, Some(&buf), 0)
    }

    /// [`Record::decode_leased`] on a buffer the caller keeps a handle to:
    /// the views alias `buf`, which is not copied.
    pub fn decode_shared(buf: &Arc<Vec<u8>>) -> Result<Record, DecodeError> {
        Record::decode_leased(Arc::clone(buf).into())
    }
}

fn packed_tag(dtype: PackedDtype) -> u8 {
    match dtype {
        PackedDtype::F64 => TAG_PACKED_F64,
        PackedDtype::U64 => TAG_PACKED_U64,
        PackedDtype::I64 => TAG_PACKED_I64,
        PackedDtype::U8 => TAG_BYTES,
    }
}

/// A type tag and the little-endian word after it: a scalar, or the
/// element count (byte length) ahead of a payload.
fn put_tagged<'a>(w: &mut impl Sink<'a>, tag: u8, word: u64) {
    let mut head = [tag; 9];
    head[1..].copy_from_slice(&word.to_le_bytes());
    w.put(&head);
}

fn walk_value<'a>(value: &'a FieldValue, w: &mut impl Sink<'a>) {
    let (tag, count, payload) = match value {
        FieldValue::I64(v) => return put_tagged(w, TAG_I64, *v as u64),
        FieldValue::U64(v) => return put_tagged(w, TAG_U64, *v),
        FieldValue::F64(v) => return put_tagged(w, TAG_F64, v.to_bits()),
        FieldValue::Str(s) => {
            // Strings are small: copied into the current run, never borrowed.
            put_tagged(w, TAG_STR, s.len() as u64);
            return w.put(s.as_bytes());
        }
        FieldValue::Record(r) => {
            w.put(&[TAG_RECORD]);
            return r.walk_body(w);
        }
        FieldValue::F64Array(a) => (TAG_PACKED_F64, a.len(), le::f64s_as_bytes(a)),
        FieldValue::U64Array(a) => (TAG_PACKED_U64, a.len(), le::u64s_as_bytes(a)),
        FieldValue::I64Array(a) => (TAG_PACKED_I64, a.len(), le::i64s_as_bytes(a)),
        FieldValue::Bytes(b) => (TAG_BYTES, b.len(), Cow::Borrowed(&b[..])),
        FieldValue::Packed(p) => (packed_tag(p.dtype()), p.elem_count(), Cow::Borrowed(p.bytes())),
    };
    put_tagged(w, tag, count as u64);
    match payload {
        Cow::Borrowed(bytes) => w.put_payload(bytes),
        Cow::Owned(bytes) => w.put(&bytes),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // `remaining` phrasing avoids `pos + n` overflow on hostile lengths.
        if n > self.bytes.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` length field and validate `len * elem_bytes` against
    /// the remaining stream BEFORE any allocation, so hostile declared
    /// lengths fail with [`DecodeError::Truncated`] instead of reserving
    /// memory. Returns the payload bytes and their offset in the stream.
    fn array_bytes(&mut self, elem_bytes: usize) -> Result<(&'a [u8], usize, usize), DecodeError> {
        let len = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        let byte_len = len.checked_mul(elem_bytes).ok_or(DecodeError::Truncated)?;
        let offset = self.pos;
        let bytes = self.take(byte_len)?;
        Ok((bytes, offset, len))
    }
}

/// How deep records may nest in a stream. The step protocol nests five
/// levels at most; a frame past this cap is refused before its recursion
/// can exhaust the receiving thread's stack.
pub const MAX_DEPTH: usize = 32;

/// The fewest wire bytes a field takes: a name length, a tag and an empty
/// nested record's field count.
const MIN_FIELD_BYTES: usize = 2 + 1 + 4;

/// Decode a record body at nesting `depth` (0 for the outermost record).
fn decode_body(
    cursor: &mut Cursor<'_>,
    shared: Option<&Arc<Lease>>,
    depth: usize,
) -> Result<Record, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let count = cursor.u32()? as usize;
    // The count is the sender's word: the vector is sized once, but never
    // for more fields than the bytes left could hold.
    let room = (cursor.bytes.len() - cursor.pos) / MIN_FIELD_BYTES;
    let mut record = Record::with_capacity(count.min(room));
    for _ in 0..count {
        let name_len = cursor.u16()? as usize;
        let name = std::str::from_utf8(cursor.take(name_len)?).map_err(|_| DecodeError::BadUtf8)?;
        let name = Name::new(name);
        let value = decode_value(cursor, shared, depth)?;
        record.fields.push((name, value));
    }
    Ok(record)
}

/// Decode one array payload: a zero-copy view into the shared buffer when
/// one is available and the payload is large, an owned vector otherwise.
fn decode_array(
    cursor: &mut Cursor<'_>,
    shared: Option<&Arc<Lease>>,
    dtype: PackedDtype,
) -> Result<FieldValue, DecodeError> {
    let (bytes, offset, _) = cursor.array_bytes(dtype.elem_bytes())?;
    if let Some(buf) = shared {
        if bytes.len() >= ZERO_COPY_MIN_BYTES {
            return Ok(FieldValue::Packed(PackedArray::view(
                dtype,
                Arc::clone(buf),
                offset,
                bytes.len(),
            )));
        }
    }
    Ok(match dtype {
        PackedDtype::F64 => FieldValue::F64Array(le::bytes_to_f64s(bytes)),
        PackedDtype::U64 => FieldValue::U64Array(le::bytes_to_u64s(bytes)),
        PackedDtype::I64 => FieldValue::I64Array(le::bytes_to_i64s(bytes)),
        PackedDtype::U8 => FieldValue::Bytes(bytes.to_vec()),
    })
}

fn decode_value(
    cursor: &mut Cursor<'_>,
    shared: Option<&Arc<Lease>>,
    depth: usize,
) -> Result<FieldValue, DecodeError> {
    let tag = cursor.u8()?;
    Ok(match tag {
        TAG_I64 => FieldValue::I64(i64::from_le_bytes(cursor.take(8)?.try_into().unwrap())),
        TAG_U64 => FieldValue::U64(cursor.u64()?),
        TAG_F64 => FieldValue::F64(f64::from_le_bytes(cursor.take(8)?.try_into().unwrap())),
        TAG_STR => {
            let (bytes, _, _) = cursor.array_bytes(1)?;
            FieldValue::Str(
                std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?.to_string(),
            )
        }
        // Legacy per-element tags and packed tags share a byte-identical
        // payload layout; both decode through the bulk path.
        TAG_F64_ARRAY | TAG_PACKED_F64 => decode_array(cursor, shared, PackedDtype::F64)?,
        TAG_U64_ARRAY | TAG_PACKED_U64 => decode_array(cursor, shared, PackedDtype::U64)?,
        TAG_I64_ARRAY | TAG_PACKED_I64 => decode_array(cursor, shared, PackedDtype::I64)?,
        TAG_BYTES => decode_array(cursor, shared, PackedDtype::U8)?,
        TAG_RECORD => FieldValue::Record(decode_body(cursor, shared, depth + 1)?),
        t => return Err(DecodeError::UnknownTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Record {
        Record::new()
            .with("step", FieldValue::U64(42))
            .with("name", FieldValue::Str("zion".into()))
            .with("temp", FieldValue::F64(1.5e6))
            .with("dims", FieldValue::U64Array(vec![128, 64, 32]))
            .with("data", FieldValue::F64Array(vec![1.0, 2.0, 3.0]))
            .with("meta", FieldValue::Record(Record::new().with("rank", FieldValue::I64(-3))))
    }

    #[test]
    fn roundtrip_all_types() {
        let r = sample();
        let decoded = Record::decode(&r.encode()).unwrap();
        assert_eq!(r, decoded);
        assert_eq!(decoded.get_u64("step"), Some(42));
        assert_eq!(decoded.get_str("name"), Some("zion"));
        assert_eq!(decoded.get_record("meta").unwrap().get_i64("rank"), Some(-3));
    }

    #[test]
    fn encoded_len_is_exact() {
        let r = sample();
        assert_eq!(r.encode().len(), r.encoded_len());
    }

    #[test]
    fn segments_concatenate_to_flat_encoding() {
        let mut r = sample();
        r.set("big", FieldValue::F64Array((0..4096).map(|i| i as f64).collect()));
        let enc = r.encode_segments();
        assert_eq!(enc.to_vec(), r.encode());
        assert_eq!(enc.total_len(), r.encoded_len());
        assert!(
            enc.segments().iter().any(|s| matches!(s, EncSegment::Borrowed(_))),
            "large payload should be a borrowed segment"
        );
    }

    #[test]
    fn decode_shared_returns_views_for_large_arrays() {
        let data: Vec<f64> = (0..(ZERO_COPY_MIN_BYTES / 8 + 1)).map(|i| i as f64).collect();
        let r = Record::new()
            .with("small", FieldValue::F64Array(vec![1.0, 2.0]))
            .with("big", FieldValue::F64Array(data.clone()));
        let buf = Arc::new(r.encode());
        let d = Record::decode_shared(&buf).unwrap();
        assert_eq!(d.get_f64_array("small"), Some(&[1.0, 2.0][..]));
        let p = d.get_packed("big").expect("large array should decode packed");
        assert!(
            buf.as_ptr_range().contains(&p.bytes().as_ptr()),
            "view must alias the receive buffer"
        );
        assert_eq!(p.to_f64_vec(), data);
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocating() {
        // Hand-craft: MAGIC, one field "x", f64-array tag, length u64::MAX.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'x');
        for tag in [TAG_F64_ARRAY, TAG_PACKED_F64, TAG_U64_ARRAY, TAG_BYTES, TAG_STR] {
            let mut b = bytes.clone();
            b.push(tag);
            b.extend_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(Record::decode(&b), Err(DecodeError::Truncated), "tag {tag}");
            // A large-but-not-overflowing lie must fail the same way.
            let mut b2 = bytes.clone();
            b2.push(tag);
            b2.extend_from_slice(&(1u64 << 40).to_le_bytes());
            b2.extend_from_slice(&[0u8; 16]);
            assert_eq!(Record::decode(&b2), Err(DecodeError::Truncated), "tag {tag}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Record::decode(b"\0\0\0\0\0\0\0\0"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().encode();
        for cut in [4usize, 8, bytes.len() - 1] {
            assert!(Record::decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn set_replaces_existing_field() {
        let mut r = Record::new().with("x", FieldValue::U64(1));
        r.set("x", FieldValue::U64(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get_u64("x"), Some(2));
    }

    #[test]
    fn typed_accessor_mismatch_returns_none() {
        let r = sample();
        assert_eq!(r.get_f64("step"), None);
        assert_eq!(r.get_str("temp"), None);
        assert_eq!(r.get_u64_array("data"), None);
    }

    #[test]
    fn packed_field_reencodes_bit_exact() {
        let data: Vec<f64> = (0..2048).map(|i| (i as f64).sin()).collect();
        let r = Record::new().with("d", FieldValue::F64Array(data.clone()));
        let buf = Arc::new(r.encode());
        let d = Record::decode_shared(&buf).unwrap();
        assert!(d.get_packed("d").is_some());
        // Re-encoding a record holding a view reproduces the same bytes.
        assert_eq!(d.encode(), *buf);
        assert_eq!(Record::decode(&d.encode()).unwrap().get_f64_array("d"), Some(&data[..]));
    }

    #[test]
    fn cross_integer_accessors_coerce() {
        let r = Record::new()
            .with("a", FieldValue::I64(7))
            .with("b", FieldValue::U64(9))
            .with("neg", FieldValue::I64(-1));
        assert_eq!(r.get_u64("a"), Some(7));
        assert_eq!(r.get_i64("b"), Some(9));
        assert_eq!(r.get_u64("neg"), None, "negative cannot coerce to u64");
    }

    #[test]
    fn names_inline_and_boxed_roundtrip() {
        let inline = "x".repeat(INLINE_NAME);
        let boxed = "y".repeat(INLINE_NAME + 1);
        let r = Record::new()
            .with(&inline, FieldValue::U64(1))
            .with(&boxed, FieldValue::U64(2))
            .with("ünï", FieldValue::U64(3))
            .with("", FieldValue::U64(4));
        let d = Record::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        let names: Vec<&str> = d.iter().map(|(n, _)| n).collect();
        assert_eq!(names, [inline.as_str(), boxed.as_str(), "ünï", ""]);
        assert_eq!((d.get_u64(&inline), d.get_u64(&boxed)), (Some(1), Some(2)));
    }

    #[test]
    fn list_items_are_prefix_dot_index_fields() {
        let mut r = Record::new();
        r.set_item("m", &[3], FieldValue::U64(7));
        r.set_item("chunk", &[1, 20], FieldValue::U64(8));
        let long = "p".repeat(ITEM_KEY_CAP);
        r.set_item(&long, &[usize::MAX], FieldValue::U64(9));
        assert_eq!(r.get_u64("m.3"), Some(7));
        assert_eq!(r.get_u64("chunk.1.20"), Some(8));
        assert_eq!(r.get_u64(&format!("{long}.{}", usize::MAX)), Some(9));
        assert_eq!(r.get_item("m", &[3]), Some(&FieldValue::U64(7)));
        assert_eq!(r.get_item("m", &[4]), None);
        assert_eq!(r.take_item("chunk", &[1, 20]), Some(FieldValue::U64(8)));
        assert_eq!((r.len(), r.get_item("chunk", &[1, 20])), (2, None));
    }

    #[test]
    fn typed_takes_move_out_only_their_type() {
        let mut r = sample();
        assert_eq!(r.take_str("step"), None, "a u64 is not taken as a string");
        assert_eq!(r.take_u64_array("name"), None);
        assert_eq!(r.take_record("dims"), None);
        assert_eq!(r.len(), sample().len());
        assert_eq!(r.take_str("name").as_deref(), Some("zion"));
        assert_eq!(r.take_u64_array("dims"), Some(vec![128, 64, 32]));
        assert_eq!(r.take_record("meta").and_then(|m| m.get_i64("rank")), Some(-3));
        let left: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(left, ["step", "temp", "data"], "the rest keep their order");
        assert_eq!(r.take("step"), Some(FieldValue::U64(42)));
        assert_eq!(r.take("step"), None);
    }

    /// `depth` records, each the one field of its parent; the innermost
    /// is empty.
    fn nested(depth: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        for _ in 0..depth {
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&0u16.to_le_bytes());
            bytes.push(TAG_RECORD);
        }
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes
    }

    #[test]
    fn nesting_up_to_the_cap_decodes_and_past_it_is_refused() {
        let deepest = Record::decode(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.encode(), nested(MAX_DEPTH));
        assert_eq!(Record::decode(&nested(MAX_DEPTH + 1)), Err(DecodeError::TooDeep));
        let leased = Record::decode_shared(&Arc::new(nested(MAX_DEPTH + 1)));
        assert_eq!(leased.err(), Some(DecodeError::TooDeep));
    }

    #[test]
    fn a_deeply_nested_frame_is_refused_on_a_small_stack() {
        // 20 000 levels, 140 KB: without the cap, one recursion per level
        // overflows a 2 MiB thread stack and aborts the process.
        let frame = Arc::new(nested(20_000));
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (Record::decode(&frame).err(), Record::decode_shared(&frame).err()))
            .unwrap()
            .join()
            .expect("decoder thread survived");
        assert_eq!(outcome, (Some(DecodeError::TooDeep), Some(DecodeError::TooDeep)));
    }

    proptest! {
        #[test]
        fn roundtrip_random_scalars(
            step in any::<u64>(),
            x in any::<f64>(),
            s in "[a-zA-Z0-9 ]{0,40}",
            arr in proptest::collection::vec(any::<u64>(), 0..32),
        ) {
            let r = Record::new()
                .with("step", FieldValue::U64(step))
                .with("x", FieldValue::F64(x))
                .with("s", FieldValue::Str(s.clone()))
                .with("arr", FieldValue::U64Array(arr.clone()));
            let d = Record::decode(&r.encode()).unwrap();
            prop_assert_eq!(d.get_u64("step"), Some(step));
            let got_x = d.get_f64("x").unwrap();
            prop_assert_eq!(got_x.to_bits(), x.to_bits());
            prop_assert_eq!(d.get_str("s"), Some(s.as_str()));
            prop_assert_eq!(d.get_u64_array("arr"), Some(arr.as_slice()));
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Record::decode(&bytes); // must not panic
        }

        #[test]
        fn shared_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Record::decode_shared(&Arc::new(bytes.clone())); // must not panic
        }
    }
}
