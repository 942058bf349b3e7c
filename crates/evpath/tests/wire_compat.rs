//! Wire-format compatibility between the legacy per-element array
//! encoding and the packed bulk encoding.
//!
//! The packed tags changed how the *encoder* lays array payloads down
//! (one contiguous little-endian run instead of a per-element loop),
//! but the byte layout of each payload is identical — so a decoder
//! built for the packed format must accept old streams unchanged, and
//! both encodings of the same record must decode to the same value.

use std::sync::Arc;

use evpath::ffs::le;
use evpath::{DecodeError, FieldValue, PackedArray, Record};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(any::<f64>(), 0..64),
        proptest::collection::vec(any::<u64>(), 0..64),
        proptest::collection::vec(any::<i64>(), 0..64),
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<u64>(),
    )
        .prop_map(|(fs, us, is, bs, step)| {
            let meta = Record::new()
                .with("rank", FieldValue::I64(step as i64))
                .with("temp", FieldValue::F64(1.5e6))
                .with("dims", FieldValue::U64Array(us.clone()));
            Record::new()
                .with("step", FieldValue::U64(step))
                .with("name", FieldValue::Str("var/x".into()))
                .with("f", FieldValue::F64Array(fs))
                .with("u", FieldValue::U64Array(us))
                .with("i", FieldValue::I64Array(is))
                .with("b", FieldValue::Bytes(bs))
                .with("meta", FieldValue::Record(meta))
        })
}

/// The pre-packed wire format, which the library no longer writes: the
/// same framing and scalar tags, but arrays under the per-element tags
/// (5 = f64, 6 = u64, 9 = i64), laid down one element at a time. Frozen
/// here, numbers and all, as the old stream the decoder must keep
/// accepting.
fn encode_legacy(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&0x4646_5331u32.to_le_bytes()); // "FFS1"
    encode_body_legacy(rec, &mut out);
    out
}

fn encode_body_legacy(rec: &Record, out: &mut Vec<u8>) {
    out.extend_from_slice(&(rec.len() as u32).to_le_bytes());
    for (name, value) in rec.iter() {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        encode_value_legacy(value, out);
    }
}

fn encode_value_legacy(value: &FieldValue, out: &mut Vec<u8>) {
    match value {
        FieldValue::I64(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        FieldValue::U64(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_le_bytes());
        }
        FieldValue::F64(v) => {
            out.push(3);
            out.extend_from_slice(&v.to_le_bytes());
        }
        FieldValue::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        FieldValue::F64Array(a) => {
            out.push(5);
            out.extend_from_slice(&(a.len() as u64).to_le_bytes());
            for v in a {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        FieldValue::U64Array(a) => {
            out.push(6);
            out.extend_from_slice(&(a.len() as u64).to_le_bytes());
            for v in a {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        FieldValue::Bytes(b) => {
            out.push(7);
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(b);
        }
        FieldValue::Record(r) => {
            out.push(8);
            encode_body_legacy(r, out);
        }
        FieldValue::I64Array(a) => {
            out.push(9);
            out.extend_from_slice(&(a.len() as u64).to_le_bytes());
            for v in a {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        FieldValue::Packed(_) => panic!("the old format predates views"),
    }
}

proptest! {
    /// Old per-element-tag streams decode to exactly the same record as
    /// the packed encoding of the same value.
    #[test]
    fn legacy_and_packed_encodings_decode_identically(rec in arb_record()) {
        let from_legacy = Record::decode(&encode_legacy(&rec)).unwrap();
        let from_packed = Record::decode(&rec.encode()).unwrap();
        prop_assert_eq!(&from_legacy, &from_packed);
        prop_assert_eq!(&from_legacy, &rec);
    }

    /// The scatter-gather segment encoding concatenates to the exact
    /// flat packed encoding (so vectored sends are wire-compatible with
    /// flat sends).
    #[test]
    fn segments_match_flat_encoding(rec in arb_record()) {
        let enc = rec.encode_segments();
        prop_assert_eq!(enc.to_vec(), rec.encode());
        prop_assert_eq!(enc.total_len(), rec.encoded_len());
    }
}

/// Bit-exact round-trips for every packed dtype, including the empty
/// and one-element edge cases and non-finite doubles.
#[test]
fn packed_roundtrips_bit_exact_all_dtypes() {
    let f64_cases: [&[f64]; 4] = [
        &[],
        &[f64::NAN],
        &[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE],
        &[1.5e300, -2.5e-300, 3.0],
    ];
    for case in f64_cases {
        let p = PackedArray::from_f64s(case);
        let rec = Record::new().with("x", FieldValue::Packed(p));
        let back = Record::decode(&rec.encode()).unwrap();
        let got = match back.get("x").unwrap() {
            FieldValue::F64Array(v) => v.clone(),
            FieldValue::Packed(p) => p.to_f64_vec(),
            other => panic!("unexpected variant {other:?}"),
        };
        assert_eq!(got.len(), case.len());
        for (a, b) in got.iter().zip(case) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 bits drifted through the wire");
        }
    }

    let u64_cases: [&[u64]; 3] = [&[], &[u64::MAX], &[0, 1, u64::MAX, u64::MAX - 1]];
    for case in u64_cases {
        let rec = Record::new().with("x", FieldValue::Packed(PackedArray::from_u64s(case)));
        let back = Record::decode(&rec.encode()).unwrap();
        let got = match back.get("x").unwrap() {
            FieldValue::U64Array(v) => v.clone(),
            FieldValue::Packed(p) => p.to_u64_vec(),
            other => panic!("unexpected variant {other:?}"),
        };
        assert_eq!(&got[..], case);
    }

    let i64_cases: [&[i64]; 3] = [&[], &[i64::MIN], &[i64::MIN, -1, 0, 1, i64::MAX]];
    for case in i64_cases {
        let rec = Record::new().with("x", FieldValue::Packed(PackedArray::from_i64s(case)));
        let back = Record::decode(&rec.encode()).unwrap();
        let got = match back.get("x").unwrap() {
            FieldValue::I64Array(v) => v.clone(),
            FieldValue::Packed(p) => p.to_i64_vec(),
            other => panic!("unexpected variant {other:?}"),
        };
        assert_eq!(&got[..], case);
    }

    let u8_cases: [&[u8]; 3] = [&[], &[0xFF], &[0, 1, 2, 254, 255]];
    for case in u8_cases {
        let rec = Record::new().with("x", FieldValue::Bytes(case.to_vec()));
        let back = Record::decode(&rec.encode()).unwrap();
        assert_eq!(back.get_bytes("x"), Some(case));
    }
}

/// Packed views taken from a shared buffer re-encode to the same bytes
/// as the original record (view -> wire -> view is stable).
#[test]
fn shared_views_reencode_identically() {
    let data: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
    let rec = Record::new()
        .with("v", FieldValue::F64Array(data))
        .with("tag", FieldValue::Str("pass1".into()));
    let wire1 = Arc::new(rec.encode());
    let viewed = Record::decode_shared(&wire1).unwrap();
    assert!(viewed.get_packed("v").is_some(), "expected zero-copy view");
    let wire2 = viewed.encode();
    assert_eq!(*wire1, wire2);
}

/// Hostile declared lengths must be rejected with `Truncated` before
/// any allocation, for both tag families.
#[test]
fn oversized_lengths_rejected_for_both_tag_families() {
    // Legacy u64-array tag and the packed u64 tag share payload layout;
    // craft a minimal stream by hand for each and corrupt the length.
    // 1 << 61 elements * 8 bytes overflows a u64 byte count; the other
    // two are plain too-large-for-the-buffer lengths.
    for huge in [u64::MAX, 1u64 << 40, 1u64 << 61] {
        let rec = Record::new().with("a", FieldValue::U64Array(vec![1, 2, 3]));
        for bytes in [rec.encode(), encode_legacy(&rec)] {
            // Field header: magic(4) + count(4) + name_len(2) + "a"(1) + tag(1),
            // then the u64 element count we overwrite.
            let mut evil = bytes.clone();
            let len_at = 4 + 4 + 2 + 1 + 1;
            evil[len_at..len_at + 8].copy_from_slice(&huge.to_le_bytes());
            assert_eq!(Record::decode(&evil), Err(DecodeError::Truncated));
            assert_eq!(Record::decode_shared(&Arc::new(evil)).err(), Some(DecodeError::Truncated));
        }
    }
}

/// Truncating a valid stream anywhere never panics and fails cleanly.
#[test]
fn truncation_always_errors_cleanly() {
    let rec = Record::new()
        .with("f", FieldValue::F64Array(vec![1.0; 100]))
        .with("s", FieldValue::Str("hello".into()));
    let full = rec.encode();
    for cut in 0..full.len() {
        assert!(Record::decode(&full[..cut]).is_err(), "decode of a {cut}-byte prefix should fail");
    }
    assert!(Record::decode(&full).is_ok());
}

/// The bulk little-endian helpers agree with the per-element encoding
/// the legacy path used.
#[test]
fn bulk_le_helpers_match_per_element_layout() {
    let vals = [1.25f64, -0.0, f64::NAN, 9.75e12];
    let bulk = le::f64s_as_bytes(&vals).into_owned();
    let mut per_elem = Vec::new();
    for v in vals {
        per_elem.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(bulk, per_elem);
    let back = le::bytes_to_f64s(&bulk);
    for (a, b) in back.iter().zip(vals) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

// ------------------------------------------------- socket frame headers

mod frame_header {
    use evpath::{
        decode_frame_header, encode_frame_header, read_frame, socket::raw_socket_pair, write_frame,
        SocketKind, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN,
    };
    use proptest::prelude::*;

    proptest! {
        /// Every encodable length round-trips through the header codec,
        /// from the zero-length frame up to the hard cap.
        #[test]
        fn header_roundtrips_any_length(len in prop_oneof![
            Just(0u32),
            Just(MAX_FRAME_LEN),
            0..=MAX_FRAME_LEN,
        ]) {
            let header = encode_frame_header(len);
            prop_assert_eq!(header.len(), FRAME_HEADER_LEN);
            prop_assert_eq!(&header[..4], FRAME_MAGIC.as_slice());
            prop_assert_eq!(decode_frame_header(&header, MAX_FRAME_LEN), Ok(len));
        }

        /// Any corruption of the magic bytes is rejected — a desynced
        /// byte stream can never be misread as a frame boundary.
        #[test]
        fn damaged_magic_never_decodes(byte in 0usize..4, flip in 1u8..=255, len in 0..=MAX_FRAME_LEN) {
            let mut header = encode_frame_header(len);
            header[byte] ^= flip;
            prop_assert!(decode_frame_header(&header, MAX_FRAME_LEN).is_err());
        }

        /// Lengths above the receiver's cap are rejected at the header,
        /// before any allocation.
        #[test]
        fn oversize_lengths_are_rejected(cap in 0u32..MAX_FRAME_LEN, over in 1u32..1024) {
            let len = cap.saturating_add(over);
            prop_assume!(len > cap);
            let header = encode_frame_header(len);
            prop_assert!(decode_frame_header(&header, cap).is_err());
            prop_assert_eq!(decode_frame_header(&header, len), Ok(len));
        }

        /// Arbitrary payloads — zero-length included — cross a real
        /// socket intact through the framed blocking helpers.
        #[test]
        fn framed_payloads_cross_a_socket(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let (mut tx, mut rx) = raw_socket_pair(SocketKind::Tcp);
            write_frame(&mut tx, &payload).unwrap();
            let _ = rx.set_nonblocking(false);
            let got = read_frame(&mut rx, MAX_FRAME_LEN).unwrap();
            prop_assert_eq!(got, payload);
        }
    }
}
