//! FFS-like self-describing binary marshaling.
//!
//! Wire layout of an encoded record:
//!
//! ```text
//! [MAGIC u32] [field_count u32] then per field:
//!   [name_len u16][name bytes][type_tag u8][payload]
//! ```
//!
//! An array carries its element type in its tag and a `u64` element count
//! ahead of its little-endian bytes; a string carries a `u64` length;
//! nested records recurse. All integers little-endian. The format is
//! self-describing: decoding requires no out-of-band schema, which is
//! what lets FlexIO's handshake messages evolve without lockstep upgrades
//! on both sides (the property FFS provides the real system).
//!
//! # Arrays
//!
//! Every array, whatever its element type, is one [`PackedArray`]: a
//! [`PackedDtype`] over the very bytes the wire carries, so encoding
//! appends them with one bulk copy (or, under [`Record::encode_segments`],
//! borrows them) and the encoder has one array arm. Its bytes are held
//! inline (a shape, an offset, a count), owned words, or a view into a
//! shared receive buffer that [`Record::decode_leased`] makes of a payload
//! of at least [`ZERO_COPY_MIN_BYTES`], so large payloads are never copied
//! at decode time. Short strings are inline [`Name`]s the same way. The
//! original per-element tags (5, 6, 9) still decode, through the same arms
//! as the packed tags; `tests/wire_compat.rs` keeps a generator of such old
//! streams to hold the decoder to that.

use std::sync::Arc;

use shm::{Lease, Window};

use crate::{StackVec, FRAME_SLICES};

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

/// Payloads at least this large decode as zero-copy [`PackedArray`]
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
                    Cow::Owned(v.iter().flat_map(|x| x.to_le_bytes()).collect())
                }
            }

            /// View a little-endian byte run as elements where it lies:
            /// `Some` on a little-endian target when `src` starts on an
            /// element-aligned address and holds a whole number of
            /// elements, `None` otherwise.
            pub fn $as_elems(src: &[u8]) -> Option<&[$ty]> {
                const W: usize = std::mem::size_of::<$ty>();
                #[cfg(target_endian = "little")]
                {
                    let aligned =
                        (src.as_ptr() as usize).is_multiple_of(std::mem::align_of::<$ty>());
                    if !aligned || !src.len().is_multiple_of(W) {
                        return None;
                    }
                    // SAFETY: aligned, whole elements (checked above), any
                    // bit pattern valid, borrowed for the returned lifetime,
                    // and on this target the wire order is the native one.
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

            /// Copy a little-endian byte run into a new vector, filling its
            /// capacity without zeroing it first.
            ///
            /// Panics unless `src` holds a whole number of elements.
            pub fn $to_vec(src: &[u8]) -> Vec<$ty> {
                const W: usize = std::mem::size_of::<$ty>();
                assert!(src.len().is_multiple_of(W), "byte run splits an element");
                let mut out: Vec<$ty> = Vec::with_capacity(src.len() / W);
                #[cfg(target_endian = "little")]
                // SAFETY: the spare capacity holds at least `src.len()`
                // bytes, fresh capacity overlaps nothing, every bit pattern
                // is a valid element, and the copy initializes all of the
                // `src.len() / W` elements `set_len` then exposes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr(),
                        out.spare_capacity_mut().as_mut_ptr().cast::<u8>(),
                        src.len(),
                    );
                    out.set_len(src.len() / W);
                }
                #[cfg(not(target_endian = "little"))]
                out.extend(
                    src.chunks_exact(W).map(|c| <$ty>::from_le_bytes(c.try_into().unwrap())),
                );
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

    le_impl!(f64s_as_bytes, bytes_as_f64s, bytes_to_f64_vec, copy_bytes_into_f64s, f64);
    le_impl!(u64s_as_bytes, bytes_as_u64s, bytes_to_u64_vec, copy_bytes_into_u64s, u64);
    le_impl!(i64s_as_bytes, bytes_as_i64s, bytes_to_i64_vec, copy_bytes_into_i64s, i64);
}

/// Element type of a [`PackedArray`].
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

/// A typed array as its little-endian wire bytes: the one array a
/// [`Record`] holds ([`FieldValue::Packed`]).
///
/// The bytes lie in one of three stores. An **inline** store holds up to
/// [`INLINE_WORDS`] words in place — every shape, offset and count of a
/// 1-, 2- or 3-D block — so a short array is decoded, built from a slice
/// and cloned without an allocation. An **owned** store is 8-aligned
/// words: a `Vec<f64>`/`Vec<u64>`/`Vec<i64>` adopted without a copy
/// (`From`) and given back the same way (`into_*_vec`), or a longer array
/// copied out of a frame. A **view** is a window into a shared buffer: a
/// payload of at least [`ZERO_COPY_MIN_BYTES`] under
/// [`Record::decode_leased`], an adopted `Vec<u8>`, or a longer slice the
/// `from_*s` constructors packed. Cloning a view bumps an `Arc`; the
/// buffer goes home when the last view drops. The `as_*s` accessors
/// borrow the elements where they lie (an inline or owned store always can
/// on a little-endian target, a view when it starts on an 8-byte
/// boundary); the `to_*_vec` converters make the one bulk copy. Equality is
/// by dtype and bytes, whatever the stores.
#[derive(Clone)]
pub struct PackedArray {
    dtype: PackedDtype,
    store: Store,
}

/// Arrays of at most this many words (`U8` arrays of at most eight times
/// as many bytes) are held inline in their [`PackedArray`].
pub const INLINE_WORDS: usize = 3;

#[derive(Clone)]
enum Store {
    /// The first `len` bytes of these words.
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    /// Words holding the little-endian bytes; a byte array's last word
    /// ends in `pad` bytes of padding.
    Owned { pad: u8, words: Vec<u64> },
    /// A window of `len` bytes at `offset` into the shared buffer.
    View { buf: Arc<Lease>, offset: usize, len: usize },
}

// A record's field vector holds a name and a value per field: an inline
// store must not grow either past the 64 bytes a field takes.
const _: () = assert!(std::mem::size_of::<PackedArray>() == 40);
const _: () = assert!(std::mem::size_of::<FieldValue>() == 40);

/// Reinterpret a vector of one 8-byte element type as another, in place.
///
/// # Safety
///
/// `A` and `B` must be `u64`, `i64` or `f64`: one size and alignment and
/// every bit pattern valid, so the parts describe a `Vec<B>` that frees
/// with the layout it was allocated with.
unsafe fn recast<A, B>(v: Vec<A>) -> Vec<B> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: the caller's contract.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

/// Turn words between native and little-endian order (an involution, and
/// nothing at all on a little-endian target).
fn swap_le(words: &mut [u64]) {
    if cfg!(target_endian = "big") {
        words.iter_mut().for_each(|w| *w = w.swap_bytes());
    }
}

impl PackedArray {
    /// A view of `byte_len` bytes at `offset` into `buf`.
    ///
    /// Panics if the window is out of bounds or not a whole number of
    /// elements.
    pub fn view(dtype: PackedDtype, buf: Arc<Lease>, offset: usize, byte_len: usize) -> Self {
        assert!(offset + byte_len <= buf.len(), "packed view out of bounds");
        assert_eq!(byte_len % dtype.elem_bytes(), 0, "packed view splits an element");
        PackedArray { dtype, store: Store::View { buf, offset, len: byte_len } }
    }

    /// A copy of the little-endian run `bytes`: inline when it fits, owned
    /// words otherwise.
    fn copied(dtype: PackedDtype, bytes: &[u8]) -> Self {
        fn fill(words: &mut [u64], bytes: &[u8]) {
            assert!(bytes.len() <= words.len() * 8, "words too short for the bytes");
            // SAFETY: the words hold at least `bytes.len()` bytes (checked
            // above), any of which make a valid `u64`, and fresh words
            // overlap nothing.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    words.as_mut_ptr().cast(),
                    bytes.len(),
                )
            }
        }
        let store = if bytes.len() <= INLINE_WORDS * 8 {
            let mut words = [0u64; INLINE_WORDS];
            fill(&mut words, bytes);
            Store::Inline { len: bytes.len() as u8, words }
        } else {
            let mut words = vec![0u64; bytes.len().div_ceil(8)];
            fill(&mut words, bytes);
            Store::Owned { pad: (words.len() * 8 - bytes.len()) as u8, words }
        };
        PackedArray { dtype, store }
    }

    /// Element type.
    pub fn dtype(&self) -> PackedDtype {
        self.dtype
    }

    /// Number of elements.
    pub fn elem_count(&self) -> usize {
        self.byte_len() / self.dtype.elem_bytes()
    }

    /// Length of the payload in bytes.
    pub fn byte_len(&self) -> usize {
        match &self.store {
            Store::Inline { len, .. } => usize::from(*len),
            Store::Owned { pad, words } => words.len() * 8 - usize::from(*pad),
            Store::View { len, .. } => *len,
        }
    }

    /// The raw little-endian wire bytes of the payload.
    pub fn bytes(&self) -> &[u8] {
        let words = match &self.store {
            Store::Inline { words, .. } => &words[..],
            Store::Owned { words, .. } => &words[..],
            Store::View { buf, offset, len } => return &buf[*offset..*offset + *len],
        };
        // SAFETY: the words hold at least `byte_len` bytes (only this
        // module builds a store: an inline `len` is at most its words'
        // bytes, an owned `pad` less than one word); `u64` has no padding
        // and `u8` alignment 1.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), self.byte_len()) }
    }

    /// Whether the bytes are a window into a shared buffer rather than
    /// words the array holds.
    pub fn is_view(&self) -> bool {
        matches!(self.store, Store::View { .. })
    }

    /// Whether the bytes are held inline (see [`INLINE_WORDS`]).
    pub fn is_inline(&self) -> bool {
        matches!(self.store, Store::Inline { .. })
    }

    /// Whether the `as_*s` accessors can borrow the elements where they
    /// lie (always for bytes).
    pub fn in_place(&self) -> bool {
        self.dtype == PackedDtype::U8 || le::bytes_as_u64s(self.bytes()).is_some()
    }
}

/// The constructors, accessors and converters of one 8-byte element type.
macro_rules! words {
    ($ty:ty, $dtype:ident, $from_s:ident, $as_s:ident, $to_vec:ident, $into_vec:ident,
     $at:ident, $le_bytes:path, $le_as:path, $le_to_vec:path) => {
        impl PackedArray {
            /// Pack a slice: inline when it is at most [`INLINE_WORDS`]
            /// long, else into a view of a buffer of its own (one bulk
            /// copy) that its clones share.
            pub fn $from_s(v: &[$ty]) -> Self {
                if v.len() <= INLINE_WORDS {
                    return Self::copied(PackedDtype::$dtype, &$le_bytes(v));
                }
                PackedArray { dtype: PackedDtype::$dtype, ..$le_bytes(v).into_owned().into() }
            }

            /// Borrow the elements where they lie: `None` for another
            /// dtype, or for bytes that cannot be read in place (see
            /// [`Self::in_place`]).
            pub fn $as_s(&self) -> Option<&[$ty]> {
                (self.dtype == PackedDtype::$dtype).then(|| $le_as(self.bytes())).flatten()
            }

            /// Copy into owned elements (one bulk copy). Panics on another
            /// dtype.
            pub fn $to_vec(&self) -> Vec<$ty> {
                assert_eq!(self.dtype, PackedDtype::$dtype, "packed array of another dtype");
                $le_to_vec(self.bytes())
            }

            /// The elements as a vector: an owned store's words given back
            /// without a copy, an inline store's or a view's bytes copied.
            /// Panics on another dtype.
            pub fn $into_vec(self) -> Vec<$ty> {
                assert_eq!(self.dtype, PackedDtype::$dtype, "packed array of another dtype");
                let mut words = match self.store {
                    Store::Owned { words, .. } => words,
                    Store::Inline { .. } | Store::View { .. } => return self.$to_vec(),
                };
                swap_le(&mut words);
                // SAFETY: an 8-byte element type, see `recast`.
                unsafe { recast(words) }
            }

            /// One element by index, decoded in place. Panics on another
            /// dtype or out of bounds.
            pub fn $at(&self, i: usize) -> $ty {
                assert_eq!(self.dtype, PackedDtype::$dtype, "packed array of another dtype");
                <$ty>::from_le_bytes(self.bytes()[i * 8..i * 8 + 8].try_into().unwrap())
            }
        }

        /// Adopt the vector as an owned store, without a copy.
        impl From<Vec<$ty>> for PackedArray {
            fn from(v: Vec<$ty>) -> Self {
                // SAFETY: an 8-byte element type, see `recast`.
                let mut words: Vec<u64> = unsafe { recast(v) };
                swap_le(&mut words);
                PackedArray { dtype: PackedDtype::$dtype, store: Store::Owned { pad: 0, words } }
            }
        }
    };
}

use le::{
    bytes_as_f64s, bytes_as_i64s, bytes_as_u64s, bytes_to_f64_vec, bytes_to_i64_vec,
    bytes_to_u64_vec, f64s_as_bytes, i64s_as_bytes, u64s_as_bytes,
};
words! {
    f64, F64, from_f64s, as_f64s, to_f64_vec, into_f64_vec, f64_at, f64s_as_bytes, bytes_as_f64s,
    bytes_to_f64_vec
}
words! {
    u64, U64, from_u64s, as_u64s, to_u64_vec, into_u64_vec, u64_at, u64s_as_bytes, bytes_as_u64s,
    bytes_to_u64_vec
}
words! {
    i64, I64, from_i64s, as_i64s, to_i64_vec, into_i64_vec, i64_at, i64s_as_bytes, bytes_as_i64s,
    bytes_to_i64_vec
}

/// An array field holding a copy of the slice (inline when short, see
/// [`PackedArray::from_u64s`]): how a shape, offset or count goes into a
/// record without an allocation.
impl From<&[u64]> for FieldValue {
    fn from(v: &[u64]) -> Self {
        FieldValue::Packed(PackedArray::from_u64s(v))
    }
}

/// Adopt a byte vector as the buffer of a view, without a copy.
impl From<Vec<u8>> for PackedArray {
    fn from(v: Vec<u8>) -> Self {
        let byte_len = v.len();
        Self::view(PackedDtype::U8, Arc::new(v.into()), 0, byte_len)
    }
}

/// An array field adopting the vector (see [`PackedArray`]).
impl<T> From<Vec<T>> for FieldValue
where
    PackedArray: From<Vec<T>>,
{
    fn from(v: Vec<T>) -> Self {
        FieldValue::Packed(v.into())
    }
}

impl std::fmt::Debug for PackedArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let store = match self.store {
            Store::Inline { .. } => "inline",
            Store::Owned { .. } => "owned",
            Store::View { .. } => "view",
        };
        write!(f, "PackedArray({:?} x {}, {store})", self.dtype, self.elem_count())
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
    /// UTF-8 string, inline when short (see [`Name`]).
    Str(Name),
    /// Nested record.
    Record(Record),
    /// An array of any element type (see [`PackedArray`]).
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
    /// A mapped message's window does not sit where an array payload of
    /// its length goes, or is left over.
    BadWindow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "stream truncated"),
            DecodeError::BadMagic => write!(f, "bad magic (not an FFS1 stream)"),
            DecodeError::UnknownTag(t) => write!(f, "unknown type tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in stream"),
            DecodeError::TooDeep => write!(f, "records nested deeper than {MAX_DEPTH}"),
            DecodeError::BadWindow => write!(f, "a mapped window matches no array payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A record encoded for a vectored send: every metadata byte in one
/// buffer, with the array payloads of at least [`ZERO_COPY_MIN_BYTES`]
/// borrowed from the record and spliced in where they go, so no flat copy
/// of the message is ever built on the send path. The concatenation of
/// [`EncodedRecord::as_slices`] equals [`Record::encode`]. When every such
/// payload is a view of a shared buffer, [`EncodedRecord::windows`] hands
/// them out as [`Window`]s, for a transport that can carry them by
/// reference.
pub struct EncodedRecord<'a> {
    meta: Vec<u8>,
    /// Each borrowed payload, after the `meta` bytes before that offset.
    payloads: StackVec<(usize, &'a PackedArray), FRAME_SLICES>,
}

impl<'a> EncodedRecord<'a> {
    /// The message's byte slices in wire order (the shape vectored sends
    /// take), on the stack for the usual handful of slices.
    pub fn as_slices(&self) -> StackVec<&[u8], FRAME_SLICES> {
        let mut slices = StackVec::new();
        let mut from = 0;
        for &(at, payload) in self.payloads.iter() {
            if at > from {
                slices.push(&self.meta[from..at]);
            }
            slices.push(payload.bytes());
            from = at;
        }
        if from < self.meta.len() {
            slices.push(&self.meta[from..]);
        }
        slices
    }

    /// Total encoded length.
    pub fn total_len(&self) -> usize {
        self.meta.len() + self.payloads.iter().map(|(_, p)| p.byte_len()).sum::<usize>()
    }

    /// Every byte of the message but the borrowed payloads, in order.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// The borrowed payloads in order, each with its offset in
    /// [`Self::meta`].
    pub fn payloads(&self) -> impl ExactSizeIterator<Item = (usize, &[u8])> + '_ {
        self.payloads.iter().map(|&(at, p)| (at, p.bytes()))
    }

    /// The borrowed payloads as windows into their shared buffers, each
    /// placed at its offset in [`Self::meta`]: `Some` when there is at
    /// least one and every one is a view, `None` when any payload lies in
    /// words the record owns. [`Record::decode_leased`] of the metadata
    /// with these windows gives the record the flat encoding gives.
    pub fn windows(&self) -> Option<impl ExactSizeIterator<Item = Window> + '_> {
        let all_views = self.payloads.iter().all(|(_, p)| p.is_view());
        (!self.payloads.is_empty() && all_views).then(|| {
            self.payloads.iter().map(|&(at, p)| match &p.store {
                Store::View { buf, offset, len } => {
                    Window { at, buf: Arc::clone(buf), start: *offset, len: *len }
                }
                _ => unreachable!("every payload is a view"),
            })
        })
    }

    /// Flatten into one buffer (equals [`Record::encode`] output).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slices().concat()
    }
}

/// Where one walk of the wire layout goes: the flat buffer of
/// [`Record::encode`], the [`EncodedRecord`] of
/// [`Record::encode_segments`] or the byte count of [`Record::encoded_len`].
trait Sink<'a> {
    fn put(&mut self, bytes: &[u8]);

    /// An array's payload, which a segment writer may borrow in place.
    fn put_payload(&mut self, array: &'a PackedArray) {
        self.put(array.bytes());
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

impl<'a> Sink<'a> for EncodedRecord<'a> {
    fn put(&mut self, bytes: &[u8]) {
        self.meta.extend_from_slice(bytes);
    }

    fn put_payload(&mut self, array: &'a PackedArray) {
        if array.byte_len() >= ZERO_COPY_MIN_BYTES {
            self.payloads.push((self.meta.len(), array));
        } else {
            self.meta.extend_from_slice(array.bytes());
        }
    }
}

/// Text of up to this many bytes is held in a [`Name`] itself (the 24
/// bytes a `String` header takes); longer text goes on the heap.
pub const INLINE_NAME: usize = 22;

/// Short text: a field name, a string field's value, a variable name. Held
/// inline when it is at most [`INLINE_NAME`] bytes (every name and message
/// kind the step protocol uses), boxed otherwise; either way it reads as a
/// `&str`, and compares, orders and hashes as one.
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    /// The text, inline when it fits.
    pub fn new(s: &str) -> Name {
        if s.len() > INLINE_NAME {
            return Name(NameRepr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE_NAME];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(NameRepr::Inline { len: s.len() as u8, bytes })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: the bytes were copied whole from a `&str` in `new`,
            // so they are valid UTF-8.
            NameRepr::Inline { len, bytes } => unsafe {
                std::str::from_utf8_unchecked(&bytes[..usize::from(*len)])
            },
            NameRepr::Heap(s) => s,
        }
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

/// Long text keeps the string's buffer; short text moves inline.
impl From<String> for Name {
    fn from(s: String) -> Name {
        if s.len() > INLINE_NAME {
            return Name(NameRepr::Heap(s.into_boxed_str()));
        }
        Name::new(&s)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        match n.0 {
            NameRepr::Heap(s) => s.into_string(),
            NameRepr::Inline { .. } => n.as_str().to_string(),
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
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
    pub fn take_str(&mut self, name: &str) -> Option<Name> {
        match self.take_matching(name, |v| matches!(v, FieldValue::Str(_)))? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Remove a `u64` array field and return it, whatever its store (an
    /// owned store is given back without a copy); a field of another type
    /// stays.
    pub fn take_u64_array(&mut self, name: &str) -> Option<Vec<u64>> {
        let is_u64s =
            |v: &FieldValue| matches!(v, FieldValue::Packed(p) if p.dtype() == PackedDtype::U64);
        match self.take_matching(name, is_u64s)? {
            FieldValue::Packed(p) => Some(p.into_u64_vec()),
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
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Typed accessor: `u64` array, borrowed where it lies (`None` for a
    /// view [`PackedArray::as_u64s`] cannot borrow).
    pub fn get_u64_array(&self, name: &str) -> Option<&[u64]> {
        self.get_packed(name)?.as_u64s()
    }

    /// Typed accessor: `f64` array (see [`Record::get_u64_array`]).
    pub fn get_f64_array(&self, name: &str) -> Option<&[f64]> {
        self.get_packed(name)?.as_f64s()
    }

    /// Typed accessor: raw bytes.
    pub fn get_bytes(&self, name: &str) -> Option<&[u8]> {
        self.get_packed(name).filter(|p| p.dtype() == PackedDtype::U8).map(PackedArray::bytes)
    }

    /// Typed accessor: nested record.
    pub fn get_record(&self, name: &str) -> Option<&Record> {
        match self.get(name)? {
            FieldValue::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Typed accessor: an array of any element type, in any store.
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

    /// Encode for a vectored send: the metadata goes to one buffer while
    /// array payloads of at least [`ZERO_COPY_MIN_BYTES`] are borrowed in
    /// place (see [`EncodedRecord`]).
    pub fn encode_segments(&self) -> EncodedRecord<'_> {
        let mut enc = EncodedRecord { meta: Vec::with_capacity(256), payloads: StackVec::new() };
        self.walk(&mut enc);
        enc
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
        decode_from(bytes, None, &[])
    }

    /// Decode from a leased receive buffer; array payloads of at least
    /// [`ZERO_COPY_MIN_BYTES`] become [`PackedArray`] views into `buf`
    /// instead of owned stores, so no payload-sized allocation or
    /// copy happens here. The lease lives as long as any such view does; a
    /// record without one releases it on return. A mapped message's
    /// windows ([`Lease::windows`]) become views of the buffers they lie
    /// in, each where its payload goes: the record the flat message
    /// decodes to, sharing those buffers.
    pub fn decode_leased(buf: Lease) -> Result<Record, DecodeError> {
        if buf.len() < ZERO_COPY_MIN_BYTES {
            // Too short to hold a view-sized payload: nothing to share.
            return decode_from(&buf, None, buf.windows());
        }
        let buf = Arc::new(buf);
        decode_from(&buf, Some(&buf), buf.windows())
    }

    /// The value of an encoded record's first field, when that field is the
    /// string `name`; `None` for any other bytes. How a message's kind is
    /// read off its frame without decoding the rest of it.
    pub fn peek_str<'a>(bytes: &'a [u8], name: &str) -> Option<&'a str> {
        let mut cursor = Cursor { bytes, pos: 0 };
        if cursor.u32().ok()? != MAGIC || cursor.u32().ok()? == 0 {
            return None;
        }
        let name_len = usize::from(cursor.u16().ok()?);
        if cursor.take(name_len).ok()? != name.as_bytes() || cursor.u8().ok()? != TAG_STR {
            return None;
        }
        std::str::from_utf8(cursor.array_bytes(1).ok()?.0).ok()
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
    match value {
        FieldValue::I64(v) => put_tagged(w, TAG_I64, *v as u64),
        FieldValue::U64(v) => put_tagged(w, TAG_U64, *v),
        FieldValue::F64(v) => put_tagged(w, TAG_F64, v.to_bits()),
        FieldValue::Str(s) => {
            // Strings are small: copied into the current run, never borrowed.
            put_tagged(w, TAG_STR, s.len() as u64);
            w.put(s.as_bytes());
        }
        FieldValue::Record(r) => {
            w.put(&[TAG_RECORD]);
            r.walk_body(w);
        }
        FieldValue::Packed(p) => {
            put_tagged(w, packed_tag(p.dtype()), p.elem_count() as u64);
            w.put_payload(p);
        }
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
    fn array_bytes(&mut self, elem_bytes: usize) -> Result<(&'a [u8], usize), DecodeError> {
        let len = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        let byte_len = len.checked_mul(elem_bytes).ok_or(DecodeError::Truncated)?;
        let offset = self.pos;
        Ok((self.take(byte_len)?, offset))
    }
}

/// How deep records may nest in a stream. The step protocol nests five
/// levels at most; a frame past this cap is refused before its recursion
/// can exhaust the receiving thread's stack.
pub const MAX_DEPTH: usize = 32;

/// The fewest wire bytes a field takes: a name length, a tag and an empty
/// nested record's field count.
const MIN_FIELD_BYTES: usize = 2 + 1 + 4;

/// Where a decode's array payloads come from besides its bytes: the
/// buffer the bytes lie in, to view large payloads in place, and a mapped
/// message's windows, each standing for the payload at its offset.
struct Src<'s> {
    shared: Option<&'s Arc<Lease>>,
    windows: std::iter::Peekable<std::slice::Iter<'s, Window>>,
}

/// Decode a whole record from `bytes` (see [`Src`] for the rest); every
/// window must be taken by an array.
fn decode_from(
    bytes: &[u8],
    shared: Option<&Arc<Lease>>,
    windows: &[Window],
) -> Result<Record, DecodeError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.u32()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut src = Src { shared, windows: windows.iter().peekable() };
    let record = decode_body(&mut cursor, &mut src, 0)?;
    match src.windows.next() {
        Some(_) => Err(DecodeError::BadWindow),
        None => Ok(record),
    }
}

/// Decode a record body at nesting `depth` (0 for the outermost record).
fn decode_body(
    cursor: &mut Cursor<'_>,
    src: &mut Src<'_>,
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
        let value = decode_value(cursor, src, depth)?;
        record.fields.push((name, value));
    }
    Ok(record)
}

/// Decode one array payload: the window that stands for it, a view into
/// the shared buffer when one is available and the payload is large, an
/// owned copy otherwise.
fn decode_array(
    cursor: &mut Cursor<'_>,
    src: &mut Src<'_>,
    dtype: PackedDtype,
) -> Result<FieldValue, DecodeError> {
    if src.windows.peek().is_some_and(|w| w.at == cursor.pos + 8) {
        let len = usize::try_from(cursor.u64()?).map_err(|_| DecodeError::Truncated)?;
        let w = src.windows.next().expect("peeked");
        if len.checked_mul(dtype.elem_bytes()) != Some(w.len) {
            return Err(DecodeError::BadWindow);
        }
        let buf = Arc::clone(&w.buf);
        return Ok(FieldValue::Packed(PackedArray::view(dtype, buf, w.start, w.len)));
    }
    let (bytes, offset) = cursor.array_bytes(dtype.elem_bytes())?;
    Ok(FieldValue::Packed(match src.shared {
        Some(buf) if bytes.len() >= ZERO_COPY_MIN_BYTES => {
            PackedArray::view(dtype, Arc::clone(buf), offset, bytes.len())
        }
        _ => PackedArray::copied(dtype, bytes),
    }))
}

fn decode_value(
    cursor: &mut Cursor<'_>,
    src: &mut Src<'_>,
    depth: usize,
) -> Result<FieldValue, DecodeError> {
    let tag = cursor.u8()?;
    Ok(match tag {
        TAG_I64 => FieldValue::I64(i64::from_le_bytes(cursor.take(8)?.try_into().unwrap())),
        TAG_U64 => FieldValue::U64(cursor.u64()?),
        TAG_F64 => FieldValue::F64(f64::from_le_bytes(cursor.take(8)?.try_into().unwrap())),
        TAG_STR => {
            let (bytes, _) = cursor.array_bytes(1)?;
            FieldValue::Str(Name::new(
                std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?,
            ))
        }
        // Legacy per-element tags and packed tags share a byte-identical
        // payload layout; both decode through the bulk path.
        TAG_F64_ARRAY | TAG_PACKED_F64 => decode_array(cursor, src, PackedDtype::F64)?,
        TAG_U64_ARRAY | TAG_PACKED_U64 => decode_array(cursor, src, PackedDtype::U64)?,
        TAG_I64_ARRAY | TAG_PACKED_I64 => decode_array(cursor, src, PackedDtype::I64)?,
        TAG_BYTES => decode_array(cursor, src, PackedDtype::U8)?,
        TAG_RECORD => FieldValue::Record(decode_body(cursor, src, depth + 1)?),
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
            .with("dims", FieldValue::from(vec![128u64, 64, 32]))
            .with("data", FieldValue::from(vec![1.0, 2.0, 3.0]))
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
        r.set("big", FieldValue::from((0..4096).map(f64::from).collect::<Vec<_>>()));
        let enc = r.encode_segments();
        assert_eq!(enc.to_vec(), r.encode());
        assert_eq!(enc.total_len(), r.encoded_len());
        let big = r.get_packed("big").unwrap().bytes();
        assert!(
            enc.as_slices().iter().any(|s| std::ptr::eq(*s, big)),
            "large payload should be borrowed where it lies"
        );
    }

    #[test]
    fn decode_shared_returns_views_for_large_arrays() {
        let data: Vec<f64> = (0..(ZERO_COPY_MIN_BYTES / 8 + 1)).map(|i| i as f64).collect();
        let r = Record::new()
            .with("small", FieldValue::from(vec![1.0, 2.0]))
            .with("big", FieldValue::from(data.clone()));
        let buf = Arc::new(r.encode());
        let d = Record::decode_shared(&buf).unwrap();
        assert_eq!(d.get_f64_array("small"), Some(&[1.0, 2.0][..]));
        let p = d.get_packed("big").expect("an array field");
        assert!(p.is_view() && !d.get_packed("small").unwrap().is_view());
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
        let r = Record::new().with("d", FieldValue::from(data.clone()));
        let buf = Arc::new(r.encode());
        let d = Record::decode_shared(&buf).unwrap();
        assert!(d.get_packed("d").is_some_and(PackedArray::is_view));
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

    /// `bytes` as a view at an odd offset into a buffer of their own.
    fn viewed(dtype: PackedDtype, bytes: &[u8]) -> PackedArray {
        let buf: Vec<u8> = [&[0xa5][..], bytes].concat();
        PackedArray::view(dtype, Arc::new(buf.into()), 1, bytes.len())
    }

    #[test]
    fn short_arrays_decode_inline_and_a_frame_kind_is_peeked() {
        let r = Record::new()
            .with("type", FieldValue::Str("writer_info".into()))
            .with("shape", FieldValue::from(&[64u64, 64, 64][..]));
        let bytes = r.encode();
        let d = Record::decode(&bytes).unwrap();
        assert!(d.get_packed("shape").is_some_and(PackedArray::is_inline));
        assert_eq!(Record::peek_str(&bytes, "type"), Some("writer_info"));
        assert_eq!(Record::peek_str(&bytes, "shape"), None, "only the first field is read");
        assert_eq!(Record::peek_str(&bytes[..bytes.len() / 2], "type"), Some("writer_info"));
        assert_eq!(Record::peek_str(&bytes[..12], "type"), None);
    }

    /// `to_*_vec` and `into_*_vec` give back every element bit for bit,
    /// NaN payloads and signed zeros included, from views at each of the
    /// eight alignments and from owned and inline stores.
    #[test]
    fn copy_outs_round_trip_every_dtype_from_any_alignment() {
        let words: Vec<u64> = (0..1_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 52))
            .chain([0x7ff8_0000_0000_0001, 0x8000_0000_0000_0000, u64::MAX, 0])
            .collect();
        let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        for pad in 0..8 {
            let buf = Arc::new(Lease::from([&vec![0xAA; pad][..], &le, &[0xBB; 5]].concat()));
            for dtype in [PackedDtype::F64, PackedDtype::U64, PackedDtype::I64, PackedDtype::U8] {
                let view = PackedArray::view(dtype, Arc::clone(&buf), pad, le.len());
                let owned = Record::decode(
                    &Record::new().with("a", FieldValue::Packed(view.clone())).encode(),
                )
                .unwrap()
                .take("a");
                let Some(FieldValue::Packed(owned)) = owned else { panic!("an array") };
                assert!(!owned.is_view());
                for p in [&view, &owned] {
                    match dtype {
                        PackedDtype::F64 => {
                            let bits =
                                |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(p.to_f64_vec()), words, "pad {pad}");
                            assert_eq!(bits(p.clone().into_f64_vec()), words, "pad {pad}");
                        }
                        PackedDtype::U64 => {
                            assert_eq!(p.to_u64_vec(), words, "pad {pad}");
                            assert_eq!(p.clone().into_u64_vec(), words, "pad {pad}");
                        }
                        PackedDtype::I64 => {
                            let signed: Vec<i64> = words.iter().map(|&w| w as i64).collect();
                            assert_eq!(p.to_i64_vec(), signed, "pad {pad}");
                            assert_eq!(p.clone().into_i64_vec(), signed, "pad {pad}");
                        }
                        PackedDtype::U8 => assert!(p.bytes() == &le[..], "pad {pad}"),
                    }
                }
            }
        }
        let short = PackedArray::from_f64s(&[f64::NAN, -0.0]);
        assert!(short.is_inline());
        assert_eq!(
            short.to_f64_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [f64::NAN.to_bits(), (-0.0f64).to_bits()]
        );
        assert!(PackedArray::from_u64s(&[]).to_u64_vec().is_empty());
    }

    proptest! {
        /// Every dtype's arrays of up to `INLINE_WORDS` words (byte arrays
        /// of up to eight times as many bytes) decode into the inline store
        /// bit-exact, and a record holding them is equal to, and encodes
        /// byte for byte as, the same record over owned words or views.
        #[test]
        fn short_arrays_round_trip_inline_and_equal_every_store(
            words in proptest::collection::vec(any::<u64>(), 0..=INLINE_WORDS),
            bytes in proptest::collection::vec(any::<u8>(), 0..=INLINE_WORDS * 8),
        ) {
            let f64s: Vec<f64> = words.iter().map(|w| f64::from_bits(*w)).collect();
            let i64s: Vec<i64> = words.iter().map(|w| *w as i64).collect();
            let raw = u64s_as_bytes(&words).into_owned();
            let arrays: [(PackedDtype, PackedArray, PackedArray); 3] = [
                (PackedDtype::U64, PackedArray::from_u64s(&words), words.clone().into()),
                (PackedDtype::F64, PackedArray::from_f64s(&f64s), f64s.clone().into()),
                (PackedDtype::I64, PackedArray::from_i64s(&i64s), i64s.clone().into()),
            ];
            let mut inline = Record::new();
            let mut owned = Record::new();
            let mut views = Record::new();
            for (dtype, short, adopted) in arrays {
                prop_assert!(short.is_inline() && !adopted.is_inline());
                prop_assert_eq!(short.bytes(), &raw[..]);
                let name = format!("{dtype:?}");
                inline.set(&name, FieldValue::Packed(short));
                owned.set(&name, FieldValue::Packed(adopted));
                views.set(&name, FieldValue::Packed(viewed(dtype, &raw)));
            }
            owned.set("U8", FieldValue::from(bytes.clone()));
            views.set("U8", FieldValue::Packed(viewed(PackedDtype::U8, &bytes)));
            let wire = owned.encode();
            inline = Record::decode(&wire).unwrap();
            for (_, v) in inline.iter() {
                prop_assert!(matches!(v, FieldValue::Packed(p) if p.is_inline()));
            }
            prop_assert_eq!(inline.get_bytes("U8"), Some(&bytes[..]));
            prop_assert_eq!(inline.get_u64_array("U64"), Some(&words[..]));
            let f64_bits = inline.get_f64_array("F64").unwrap().iter().map(|x| x.to_bits());
            prop_assert_eq!(f64_bits.collect::<Vec<_>>(), words.clone());
            prop_assert_eq!(inline.get_packed("I64").unwrap().to_i64_vec(), i64s);
            prop_assert!(inline == owned && owned == views && views == inline);
            prop_assert_eq!(&views.encode(), &wire);
            prop_assert_eq!(&inline.encode_segments().to_vec(), &wire);
            prop_assert_eq!(&Record::decode_shared(&Arc::new(wire.clone())).unwrap(), &owned);
        }

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
                .with("s", FieldValue::Str(s.as_str().into()))
                .with("arr", FieldValue::from(arr.clone()));
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
