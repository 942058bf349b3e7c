//! The ADIOS data model: scalar and array variables.

use std::borrow::Cow;

use evpath::ffs::le;
use evpath::{FieldValue, PackedArray, PackedDtype, Record};

use crate::hyperslab::StridePlan;

/// Element type of an array variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit float.
    F64,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit signed integer.
    I64,
    /// Raw bytes.
    U8,
}

impl DataType {
    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> u64 {
        match self {
            DataType::U8 => 1,
            _ => 8,
        }
    }

    /// Stable wire tag.
    pub fn tag(&self) -> u64 {
        match self {
            DataType::F64 => 0,
            DataType::U64 => 1,
            DataType::I64 => 2,
            DataType::U8 => 3,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u64) -> Option<DataType> {
        Some(match tag {
            0 => DataType::F64,
            1 => DataType::U64,
            2 => DataType::I64,
            3 => DataType::U8,
            _ => return None,
        })
    }

    /// The equivalent wire-view element type.
    pub fn packed_dtype(&self) -> PackedDtype {
        match self {
            DataType::F64 => PackedDtype::F64,
            DataType::U64 => PackedDtype::U64,
            DataType::I64 => PackedDtype::I64,
            DataType::U8 => PackedDtype::U8,
        }
    }

    /// Inverse of [`DataType::packed_dtype`].
    pub fn from_packed(dtype: PackedDtype) -> DataType {
        match dtype {
            PackedDtype::F64 => DataType::F64,
            PackedDtype::U64 => DataType::U64,
            PackedDtype::I64 => DataType::I64,
            PackedDtype::U8 => DataType::U8,
        }
    }
}

/// Typed array payload.
///
/// The owned variants hold element vectors; [`ArrayData::Packed`] is a
/// read-only zero-copy view into a leased receive buffer (see
/// [`evpath::PackedArray`]), produced when a block arrives over the wire.
/// Views are valid *sources* of [`ArrayData::copy_into`] and of the strided
/// copies in [`crate::hyperslab`] (the assembly path) and, when their bytes
/// lie 8-byte aligned on a little-endian target, support
/// [`ArrayData::as_f64`]/[`ArrayData::as_u64`] in place;
/// [`ArrayData::make_readable`] materializes the ones that do not, and
/// [`ArrayData::make_owned`] any view a consumer wants to mutate.
///
/// Two arrays are equal when their element type and elements agree (as
/// little-endian bytes, so a NaN equals itself and `0.0 != -0.0`), whether
/// either is a view or owned.
#[derive(Debug, Clone)]
pub enum ArrayData {
    /// Doubles.
    F64(Vec<f64>),
    /// Unsigned integers.
    U64(Vec<u64>),
    /// Signed integers.
    I64(Vec<i64>),
    /// Raw bytes.
    U8(Vec<u8>),
    /// Zero-copy view into a shared receive buffer (read-only).
    Packed(PackedArray),
}

impl PartialEq for ArrayData {
    fn eq(&self, other: &Self) -> bool {
        self.data_type() == other.data_type() && self.le_bytes() == other.le_bytes()
    }
}

impl ArrayData {
    /// The elements as little-endian bytes (a borrow on little-endian
    /// targets and for views).
    fn le_bytes(&self) -> Cow<'_, [u8]> {
        match self {
            ArrayData::F64(v) => le::f64s_as_bytes(v),
            ArrayData::U64(v) => le::u64s_as_bytes(v),
            ArrayData::I64(v) => le::i64s_as_bytes(v),
            ArrayData::U8(v) => Cow::Borrowed(v),
            ArrayData::Packed(p) => Cow::Borrowed(p.bytes()),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::F64(v) => v.len(),
            ArrayData::U64(v) => v.len(),
            ArrayData::I64(v) => v.len(),
            ArrayData::U8(v) => v.len(),
            ArrayData::Packed(p) => p.elem_count(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn data_type(&self) -> DataType {
        match self {
            ArrayData::F64(_) => DataType::F64,
            ArrayData::U64(_) => DataType::U64,
            ArrayData::I64(_) => DataType::I64,
            ArrayData::U8(_) => DataType::U8,
            ArrayData::Packed(p) => DataType::from_packed(p.dtype()),
        }
    }

    /// True for a zero-copy wire view (as opposed to owned elements).
    pub fn is_packed(&self) -> bool {
        matches!(self, ArrayData::Packed(_))
    }

    /// Materialize owned elements: a single bulk conversion for a packed
    /// view, a clone otherwise.
    pub fn to_owned_data(&self) -> ArrayData {
        match self {
            ArrayData::Packed(p) => ArrayData::owned(p.clone()),
            owned => owned.clone(),
        }
    }

    /// `p`'s elements in the owned variant of their type: an owned store's
    /// words moved (bytes copied), a view's copied.
    fn owned(p: PackedArray) -> ArrayData {
        match p.dtype() {
            PackedDtype::F64 => ArrayData::F64(p.into_f64_vec()),
            PackedDtype::U64 => ArrayData::U64(p.into_u64_vec()),
            PackedDtype::I64 => ArrayData::I64(p.into_i64_vec()),
            PackedDtype::U8 => ArrayData::U8(p.bytes().to_vec()),
        }
    }

    /// Replace a packed view with owned elements in place; no-op (and no
    /// copy) when the data is already owned.
    pub fn make_owned(&mut self) {
        if self.is_packed() {
            *self = self.to_owned_data();
        }
    }

    /// Make [`Self::as_f64`]/[`Self::as_u64`] work: a view whose bytes can
    /// be read where they lie stays a view (no copy, the receive buffer
    /// stays leased), one whose bytes cannot is materialized; no-op for
    /// owned data.
    pub fn make_readable(&mut self) {
        if matches!(self, ArrayData::Packed(p) if !p.in_place()) {
            self.make_owned();
        }
    }

    /// Allocate a zero-filled array of `len` elements of type `dtype`.
    pub fn zeros(dtype: DataType, len: usize) -> ArrayData {
        match dtype {
            DataType::F64 => ArrayData::F64(vec![0.0; len]),
            DataType::U64 => ArrayData::U64(vec![0; len]),
            DataType::I64 => ArrayData::I64(vec![0; len]),
            DataType::U8 => ArrayData::U8(vec![0; len]),
        }
    }

    /// Copy `count` elements from `self[src_start..]` into
    /// `dst[dst_start..]`. Panics on type mismatch or out-of-range (these
    /// are internal invariants of the redistribution code). A packed view
    /// is a valid *source* — the copy decodes straight from the shared
    /// receive buffer into the destination — but never a destination.
    pub fn copy_into(&self, src_start: usize, dst: &mut ArrayData, dst_start: usize, count: usize) {
        match (self, dst) {
            (ArrayData::F64(s), ArrayData::F64(d)) => {
                d[dst_start..dst_start + count].copy_from_slice(&s[src_start..src_start + count])
            }
            (ArrayData::U64(s), ArrayData::U64(d)) => {
                d[dst_start..dst_start + count].copy_from_slice(&s[src_start..src_start + count])
            }
            (ArrayData::I64(s), ArrayData::I64(d)) => {
                d[dst_start..dst_start + count].copy_from_slice(&s[src_start..src_start + count])
            }
            (ArrayData::U8(s), ArrayData::U8(d)) => {
                d[dst_start..dst_start + count].copy_from_slice(&s[src_start..src_start + count])
            }
            (ArrayData::Packed(p), d) => {
                let w = p.dtype().elem_bytes();
                let src = &p.bytes()[src_start * w..(src_start + count) * w];
                match (p.dtype(), d) {
                    (PackedDtype::F64, ArrayData::F64(d)) => {
                        le::copy_bytes_into_f64s(src, &mut d[dst_start..dst_start + count])
                    }
                    (PackedDtype::U64, ArrayData::U64(d)) => {
                        le::copy_bytes_into_u64s(src, &mut d[dst_start..dst_start + count])
                    }
                    (PackedDtype::I64, ArrayData::I64(d)) => {
                        le::copy_bytes_into_i64s(src, &mut d[dst_start..dst_start + count])
                    }
                    (PackedDtype::U8, ArrayData::U8(d)) => {
                        d[dst_start..dst_start + count].copy_from_slice(src)
                    }
                    (s, d) => {
                        panic!("type mismatch: packed {:?} into {:?}", s, d.data_type())
                    }
                }
            }
            (s, ArrayData::Packed(_)) => {
                panic!("packed views are read-only: {:?} into packed", s.data_type())
            }
            (s, d) => panic!("type mismatch: {:?} into {:?}", s.data_type(), d.data_type()),
        }
    }

    /// Copy every run of `plan` from `self` into `dst` (same panics as
    /// [`Self::copy_into`]). The `(src, dst)` representation pair is
    /// resolved here, once, and the walk itself allocates nothing.
    pub(crate) fn copy_runs(&self, dst: &mut ArrayData, plan: StridePlan) {
        self.move_runs(dst, plan, false)
    }

    /// The runs of `plan`, appended in order into a fresh owned array of
    /// `self`'s element type with room for `len` elements.
    pub(crate) fn gather_runs(&self, plan: StridePlan, len: usize) -> ArrayData {
        let mut out = match self.data_type() {
            DataType::F64 => ArrayData::F64(Vec::with_capacity(len)),
            DataType::U64 => ArrayData::U64(Vec::with_capacity(len)),
            DataType::I64 => ArrayData::I64(Vec::with_capacity(len)),
            DataType::U8 => ArrayData::U8(Vec::with_capacity(len)),
        };
        self.move_runs(&mut out, plan, true);
        out
    }

    fn move_runs(&self, dst: &mut ArrayData, plan: StridePlan, append: bool) {
        use ArrayData::{Packed, F64, I64, U64, U8};
        use Source::{Elems, Le};
        match (self, dst) {
            (F64(s), F64(d)) => move_typed_runs(Elems(s), d, plan, append),
            (U64(s), U64(d)) => move_typed_runs(Elems(s), d, plan, append),
            (I64(s), I64(d)) => move_typed_runs(Elems(s), d, plan, append),
            (U8(s), U8(d)) => move_typed_runs(Elems(s), d, plan, append),
            (Packed(p), F64(d)) if p.dtype() == PackedDtype::F64 => {
                move_typed_runs(Le(p.bytes()), d, plan, append)
            }
            (Packed(p), U64(d)) if p.dtype() == PackedDtype::U64 => {
                move_typed_runs(Le(p.bytes()), d, plan, append)
            }
            (Packed(p), I64(d)) if p.dtype() == PackedDtype::I64 => {
                move_typed_runs(Le(p.bytes()), d, plan, append)
            }
            (Packed(p), U8(d)) if p.dtype() == PackedDtype::U8 => {
                move_typed_runs(Le(p.bytes()), d, plan, append)
            }
            (s, Packed(_)) => panic!("packed views are read-only: {:?} into packed", s.data_type()),
            (s, d) => panic!("type mismatch: {:?} into {:?}", s.data_type(), d.data_type()),
        }
    }

    /// View as `f64` slice (panics otherwise — caller checked the type).
    /// A packed view is borrowed where it lies when its bytes allow it (see
    /// [`evpath::PackedArray::in_place`]; whatever a stream `read` returns
    /// does) and panics when they do not: [`Self::make_readable`] first.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ArrayData::F64(v) => v,
            ArrayData::Packed(p) if p.dtype() == PackedDtype::F64 => {
                p.as_f64s().expect("unaligned packed view: make_readable() first")
            }
            other => panic!("expected f64 array, got {:?}", other.data_type()),
        }
    }

    /// View as `u64` slice (see [`Self::as_f64`]).
    pub fn as_u64(&self) -> &[u64] {
        match self {
            ArrayData::U64(v) => v,
            ArrayData::Packed(p) if p.dtype() == PackedDtype::U64 => {
                p.as_u64s().expect("unaligned packed view: make_readable() first")
            }
            other => panic!("expected u64 array, got {:?}", other.data_type()),
        }
    }

    /// The payload as a field value: owned elements are cloned, a view
    /// only bumps its `Arc` (the encoder copies its bytes onto the wire).
    fn to_field(&self) -> FieldValue {
        self.clone().into_field()
    }

    /// Move the payload into a field value: an owned vector is adopted
    /// by the array without a copy.
    fn into_field(self) -> FieldValue {
        match self {
            ArrayData::F64(v) => v.into(),
            ArrayData::U64(v) => v.into(),
            ArrayData::I64(v) => v.into(),
            ArrayData::U8(v) => v.into(),
            ArrayData::Packed(p) => FieldValue::Packed(p),
        }
    }

    /// Adopt a field's array: a view stays one, an inline or owned store
    /// lands as the owned variant of its element type ([`Self::owned`]).
    fn from_field(f: FieldValue) -> Option<ArrayData> {
        let FieldValue::Packed(p) = f else { return None };
        Some(if p.is_view() { ArrayData::Packed(p) } else { ArrayData::owned(p) })
    }
}

/// Where a strided copy reads elements of type `T`: owned elements, or the
/// little-endian bytes of a packed view.
enum Source<'a, T> {
    Elems(&'a [T]),
    Le(&'a [u8]),
}

/// An owned element type, and how a run of its wire bytes becomes elements.
trait Elem: Copy {
    fn copy_le(src: &[u8], dst: &mut [Self]);
    fn extend_le(out: &mut Vec<Self>, src: &[u8]);
}

macro_rules! elem_impl {
    ($ty:ty, $copy_le:path) => {
        impl Elem for $ty {
            fn copy_le(src: &[u8], dst: &mut [Self]) {
                $copy_le(src, dst)
            }
            fn extend_le(out: &mut Vec<Self>, src: &[u8]) {
                const W: usize = std::mem::size_of::<$ty>();
                out.extend(
                    src.chunks_exact(W)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().expect("exact chunk"))),
                );
            }
        }
    };
}
elem_impl!(f64, le::copy_bytes_into_f64s);
elem_impl!(u64, le::copy_bytes_into_u64s);
elem_impl!(i64, le::copy_bytes_into_i64s);

impl Elem for u8 {
    fn copy_le(src: &[u8], dst: &mut [u8]) {
        dst.copy_from_slice(src)
    }
    fn extend_le(out: &mut Vec<u8>, src: &[u8]) {
        out.extend_from_slice(src)
    }
}

/// The one strided-copy loop: every run of `plan` from `src` either over
/// `dst[dst_index..]` or, with `append`, onto the end of `dst`. Every run
/// is bounds-checked by its slicing.
fn move_typed_runs<T: Elem>(src: Source<'_, T>, dst: &mut Vec<T>, plan: StridePlan, append: bool) {
    let n = plan.run_len();
    let w = std::mem::size_of::<T>();
    match (src, append) {
        (Source::Elems(s), false) => {
            plan.for_each_run(|at, to| dst[to..to + n].copy_from_slice(&s[at..at + n]))
        }
        (Source::Elems(s), true) => {
            plan.for_each_run(|at, _| dst.extend_from_slice(&s[at..at + n]))
        }
        (Source::Le(b), false) => {
            plan.for_each_run(|at, to| T::copy_le(&b[at * w..(at + n) * w], &mut dst[to..to + n]))
        }
        (Source::Le(b), true) => {
            plan.for_each_run(|at, _| T::extend_le(dst, &b[at * w..(at + n) * w]))
        }
    }
}

/// Scalar variable value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue {
    /// Double scalar.
    F64(f64),
    /// Unsigned scalar.
    U64(u64),
    /// Signed scalar.
    I64(i64),
    /// String scalar (run metadata etc.).
    Str(String),
}

/// One process's block of a (possibly distributed) array variable:
/// the global shape plus this block's offset and count per dimension,
/// row-major data.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalBlock {
    /// Global array shape.
    pub global_shape: Vec<u64>,
    /// This block's starting index per dimension.
    pub offset: Vec<u64>,
    /// This block's extent per dimension.
    pub count: Vec<u64>,
    /// Row-major elements, `count.product()` of them.
    pub data: ArrayData,
}

impl LocalBlock {
    /// What is inconsistent about this block's shape, if anything: it does
    /// not [`lies_inside`](crate::hyperslab::lies_inside) its global shape,
    /// or its `count` product is not the data length. Checked arithmetic
    /// throughout — the fields may be a peer's claims, and a product that
    /// overflows is a mismatch, not a wrap-around that happens to agree.
    fn shape_error(&self) -> Option<&'static str> {
        if !crate::hyperslab::lies_inside(&self.offset, &self.count, (None, &self.global_shape)) {
            return Some("block exceeds global shape or differs from it in rank");
        }
        let elems = self.count.iter().try_fold(1u64, |n, &c| n.checked_mul(c));
        (elems.and_then(|n| usize::try_from(n).ok()) != Some(self.data.len()))
            .then_some("data length != count product")
    }

    /// Validate shape consistency; returns `self` for chaining. Panics on
    /// a block the program itself built wrongly; bytes from a peer go
    /// through [`VarValue::from_record`], which refuses instead.
    pub fn validated(self) -> LocalBlock {
        if let Some(what) = self.shape_error() {
            panic!("{what}");
        }
        self
    }

    /// Number of elements in the block.
    pub fn num_elements(&self) -> u64 {
        self.count.iter().product()
    }

    /// Payload size in bytes.
    pub fn num_bytes(&self) -> u64 {
        self.num_elements() * self.data.data_type().elem_bytes()
    }

    /// Materialize packed wire views into owned elements in place.
    pub fn make_owned(&mut self) {
        self.data.make_owned();
    }
}

/// A variable's value as written: scalar, or one local block of a global
/// array.
#[derive(Debug, Clone, PartialEq)]
pub enum VarValue {
    /// Scalar.
    Scalar(ScalarValue),
    /// Array block.
    Block(LocalBlock),
}

impl VarValue {
    /// Encode into an FFS record (the wire/disk representation).
    pub fn to_record(&self) -> Record {
        match self {
            VarValue::Scalar(s) => {
                let r = Record::with_capacity(3).with("kind", FieldValue::U64(0));
                match s {
                    ScalarValue::F64(v) => {
                        r.with("stype", FieldValue::U64(0)).with("v", FieldValue::F64(*v))
                    }
                    ScalarValue::U64(v) => {
                        r.with("stype", FieldValue::U64(1)).with("v", FieldValue::U64(*v))
                    }
                    ScalarValue::I64(v) => {
                        r.with("stype", FieldValue::U64(2)).with("v", FieldValue::I64(*v))
                    }
                    ScalarValue::Str(v) => r
                        .with("stype", FieldValue::U64(3))
                        .with("v", FieldValue::Str(v.as_str().into())),
                }
            }
            VarValue::Block(b) => Record::with_capacity(6)
                .with("kind", FieldValue::U64(1))
                .with("dtype", FieldValue::U64(b.data.data_type().tag()))
                .with("shape", FieldValue::from(&b.global_shape[..]))
                .with("offset", FieldValue::from(&b.offset[..]))
                .with("count", FieldValue::from(&b.count[..]))
                .with("data", b.data.to_field()),
        }
    }

    /// Like [`VarValue::to_record`] but consumes the value, moving the
    /// array payload into the record instead of cloning it — the send path
    /// uses this so extracted chunks are marshaled without a payload copy.
    pub fn into_record(self) -> Record {
        match self {
            VarValue::Scalar(_) => self.to_record(),
            VarValue::Block(b) => Record::with_capacity(6)
                .with("kind", FieldValue::U64(1))
                .with("dtype", FieldValue::U64(b.data.data_type().tag()))
                .with("shape", FieldValue::from(b.global_shape))
                .with("offset", FieldValue::from(b.offset))
                .with("count", FieldValue::from(b.count))
                .with("data", b.data.into_field()),
        }
    }

    /// Decode from an FFS record, moving its strings, vectors and views
    /// out; `None` for a record that is not a variable or whose block
    /// shape contradicts itself.
    pub fn from_record(r: impl Into<Record>) -> Option<VarValue> {
        let mut r = r.into();
        match r.get_u64("kind")? {
            0 => Some(VarValue::Scalar(match r.get_u64("stype")? {
                0 => ScalarValue::F64(r.get_f64("v")?),
                1 => ScalarValue::U64(r.get_u64("v")?),
                2 => ScalarValue::I64(r.get_i64("v")?),
                3 => ScalarValue::Str(r.take_str("v")?.into()),
                _ => return None,
            })),
            1 => {
                let expected = DataType::from_tag(r.get_u64("dtype")?)?;
                let data = ArrayData::from_field(r.take("data")?)?;
                if data.data_type() != expected {
                    return None;
                }
                let block = LocalBlock {
                    global_shape: r.take_u64_array("shape")?,
                    offset: r.take_u64_array("offset")?,
                    count: r.take_u64_array("count")?,
                    data,
                };
                // What a record claims about its shape is checked, never
                // asserted: the record may be a peer's bytes.
                block.shape_error().is_none().then_some(VarValue::Block(block))
            }
            _ => None,
        }
    }

    /// Materialize packed wire views into owned elements in place.
    pub fn make_owned(&mut self) {
        if let VarValue::Block(b) = self {
            b.make_owned();
        }
    }

    /// Materialize only a view that cannot be read where it lies (see
    /// [`ArrayData::make_readable`]).
    pub fn make_readable(&mut self) {
        if let VarValue::Block(b) = self {
            b.data.make_readable();
        }
    }

    /// Payload bytes (0 metadata not counted).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            VarValue::Scalar(_) => 8,
            VarValue::Block(b) => b.num_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> LocalBlock {
        LocalBlock {
            global_shape: vec![4, 6],
            offset: vec![2, 0],
            count: vec![2, 3],
            data: ArrayData::F64((0..6).map(|i| i as f64).collect()),
        }
        .validated()
    }

    #[test]
    fn scalar_roundtrip() {
        for s in [
            ScalarValue::F64(3.25),
            ScalarValue::U64(9),
            ScalarValue::I64(-4),
            ScalarValue::Str("meta".into()),
        ] {
            let v = VarValue::Scalar(s);
            let r = v.to_record();
            assert_eq!(VarValue::from_record(r), Some(v));
        }
    }

    #[test]
    fn block_roundtrip() {
        let v = VarValue::Block(block());
        let encoded = v.to_record().encode();
        let decoded = VarValue::from_record(evpath::Record::decode(&encoded).unwrap());
        assert_eq!(decoded, Some(v));
    }

    #[test]
    #[should_panic(expected = "data length != count product")]
    fn bad_block_rejected() {
        LocalBlock {
            global_shape: vec![4],
            offset: vec![0],
            count: vec![4],
            data: ArrayData::F64(vec![0.0; 3]),
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "exceeds global shape")]
    fn out_of_shape_block_rejected() {
        LocalBlock {
            global_shape: vec![4],
            offset: vec![3],
            count: vec![2],
            data: ArrayData::F64(vec![0.0; 2]),
        }
        .validated();
    }

    #[test]
    fn record_with_a_contradictory_shape_is_refused_not_asserted() {
        // The fields a chunk body carries are a peer's claims.
        let tamper = |key: &str, value: Vec<u64>| {
            let mut r = VarValue::Block(block()).to_record();
            r.set(key, FieldValue::from(value));
            VarValue::from_record(r)
        };
        assert!(tamper("count", vec![2, 3]).is_some(), "the untampered shape decodes");
        assert_eq!(tamper("count", vec![2, 4]), None, "product != data length");
        assert_eq!(tamper("count", vec![6]), None, "rank disagreement");
        assert_eq!(tamper("offset", vec![3, 0]), None, "offset + count > shape");
        assert_eq!(tamper("shape", vec![4, 2]), None);
        // Overflow is a mismatch, not a wrap-around that agrees: (2^63 + 3)
        // * 2 wraps to the 6 elements there are, u64::MAX + 2 to 1.
        assert_eq!(tamper("count", vec![(1 << 63) + 3, 2]), None);
        assert_eq!(tamper("offset", vec![u64::MAX, 0]), None);
    }

    #[test]
    fn sizes() {
        let b = block();
        assert_eq!(b.num_elements(), 6);
        assert_eq!(b.num_bytes(), 48);
        assert_eq!(VarValue::Block(b).payload_bytes(), 48);
    }

    #[test]
    fn copy_into_moves_elements() {
        let src = ArrayData::F64(vec![1.0, 2.0, 3.0, 4.0]);
        let mut dst = ArrayData::zeros(DataType::F64, 4);
        src.copy_into(1, &mut dst, 0, 2);
        assert_eq!(dst.as_f64(), &[2.0, 3.0, 0.0, 0.0]);
    }

    /// A view at each of the eight byte offsets of an 8-aligned address:
    /// borrowed in place only at offset 0, materialized at the other seven.
    #[test]
    fn as_f64_borrows_a_view_in_place_only_when_aligned() {
        let elems: Vec<f64> = (0..600).map(|i| i as f64 * 0.25 - 3.0).collect();
        let wire = le::f64s_as_bytes(&elems);
        for shift in 0..8 {
            // Lay the payload `shift` bytes past an 8-byte boundary of
            // whatever address the allocator hands out.
            let mut buf = vec![0u8; wire.len() + 16];
            let at = (buf.as_ptr() as usize).wrapping_neg() % 8 + shift;
            buf[at..at + wire.len()].copy_from_slice(&wire);
            let lease = std::sync::Arc::new(evpath::Lease::from(buf));
            let view = PackedArray::view(PackedDtype::F64, lease, at, wire.len());
            let mut data = ArrayData::Packed(view.clone());
            assert_eq!(data, ArrayData::F64(elems.clone()), "content, not representation");
            if cfg!(target_endian = "little") && shift == 0 {
                assert!(view.in_place());
                assert_eq!(data.as_f64().as_ptr() as *const u8, view.bytes().as_ptr());
            } else {
                assert!(!view.in_place(), "shift {shift}");
                assert!(view.as_f64s().is_none());
            }
            data.make_readable();
            assert_eq!(data.is_packed(), cfg!(target_endian = "little") && shift == 0);
            assert_eq!(data.as_f64(), &elems[..], "shift {shift}");
        }
    }

    #[test]
    #[should_panic(expected = "expected f64 array")]
    fn as_f64_on_a_u64_view_is_a_type_error() {
        ArrayData::Packed(PackedArray::from_u64s(&[1, 2, 3])).as_f64();
    }

    #[test]
    fn equality_is_by_content() {
        let owned = ArrayData::U64(vec![7, 8, 9]);
        assert_eq!(ArrayData::Packed(PackedArray::from_u64s(&[7, 8, 9])), owned);
        assert_eq!(owned, ArrayData::Packed(PackedArray::from_u64s(&[7, 8, 9])));
        assert_ne!(ArrayData::Packed(PackedArray::from_u64s(&[7, 8])), owned);
        // Same bytes, different element type.
        assert_ne!(ArrayData::Packed(PackedArray::from_i64s(&[7, 8, 9])), owned);
    }

    #[test]
    fn corrupted_record_returns_none() {
        let r = Record::new().with("kind", FieldValue::U64(7));
        assert_eq!(VarValue::from_record(&r), None);
        // dtype tag disagreeing with the actual array type.
        let r = VarValue::Block(block()).to_record().with("dtype", FieldValue::U64(1));
        assert_eq!(VarValue::from_record(&r), None);
    }
}
