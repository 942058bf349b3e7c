//! Zero-copy guarantees for the packed wire format.
//!
//! The acceptance bar from the data-plane redesign: decoding a packed
//! array of >= 64 KiB out of a shared receive buffer must not allocate
//! (or copy into) a payload-sized buffer — the decoded field is a view
//! into the receive buffer itself. A counting global allocator watches
//! for any allocation at or above the payload size during
//! `Record::decode_shared`, and an address check proves the view
//! aliases the receive buffer rather than a private copy.

use std::sync::Arc;

use evpath::{FieldValue, Record};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with this thread's allocation counter armed at `threshold`
/// bytes and return how many allocations (or reallocations) at or above
/// it happened inside. The threshold is set to the payload size under
/// test, so any hidden payload-sized `Vec` shows up as a nonzero count.
fn count_large_allocs<R>(threshold: usize, f: impl FnOnce() -> R) -> (usize, R) {
    let (counts, out) = measure(threshold, f);
    (counts.at_or_over(), out)
}

#[test]
fn shared_decode_of_large_packed_array_does_not_copy_payload() {
    // 64 KiB of f64 payload (8192 elements * 8 bytes), well above the
    // ZERO_COPY_MIN_BYTES threshold.
    let elems = 8192usize;
    let payload_bytes = elems * 8;
    let data: Vec<f64> = (0..elems).map(|i| i as f64 * 0.5).collect();
    let rec = Record::new()
        .with("step", FieldValue::U64(7))
        .with("field", FieldValue::F64Array(data.clone()));

    // Wire bytes arrive in a shared receive buffer (as off recv_record).
    let wire = Arc::new(rec.encode());

    let (large, decoded) =
        count_large_allocs(payload_bytes, || Record::decode_shared(&wire).expect("decode"));
    assert_eq!(
        large, 0,
        "decode_shared of a {payload_bytes}-byte packed array allocated \
         {large} payload-sized buffer(s); expected a zero-copy view"
    );

    // The decoded field must be a view aliasing the receive buffer, not
    // a private copy of the payload.
    let packed = decoded.get_packed("field").expect("packed view");
    assert!(
        wire.as_ptr_range().contains(&packed.bytes().as_ptr()),
        "packed view does not alias the shared receive buffer"
    );
    assert_eq!(packed.byte_len(), payload_bytes);

    // Materializing still yields the original values bit-exactly.
    assert_eq!(packed.to_f64_vec(), data);
    assert_eq!(decoded.get_u64("step"), Some(7));
}

#[test]
fn small_arrays_decode_owned_even_from_shared_buffers() {
    // Below ZERO_COPY_MIN_BYTES the decoder materializes owned vectors,
    // so short-lived records don't pin large receive buffers alive.
    let rec = Record::new().with("v", FieldValue::F64Array(vec![1.0, 2.0, 3.0]));
    let wire = Arc::new(rec.encode());
    let decoded = Record::decode_shared(&wire).expect("decode");
    assert!(decoded.get_packed("v").is_none(), "small array should decode owned");
    assert_eq!(decoded.get_f64_array("v"), Some(&[1.0, 2.0, 3.0][..]));
}

#[test]
fn view_outlives_caller_arc_via_refcount() {
    // Lifetime rule: the view holds its own strong reference, so the
    // caller can drop the receive buffer handle and the view stays valid.
    let elems = 8192usize;
    let data: Vec<u64> = (0..elems as u64).collect();
    let rec = Record::new().with("u", FieldValue::U64Array(data.clone()));
    let wire = Arc::new(rec.encode());
    let decoded = Record::decode_shared(&wire).expect("decode");
    drop(wire);
    let packed = decoded.get_packed("u").expect("packed view");
    assert_eq!(packed.to_u64_vec(), data);
}
