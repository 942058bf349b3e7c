//! The shm channel's exposed path seen through `ShmTransport`: a record
//! sent with `send_encoded` decodes to what its flat encoding decodes to,
//! whatever stores its arrays lie in and however they nest; when every
//! bulk payload is a view, it travels by reference and arrives as a view
//! of the sender's own buffer; read flat, it is the flat encoding; and a
//! mapped message whose windows do not line up with its arrays is an
//! error, never a panic.

use std::sync::Arc;

use evpath::{
    BoxedReceiver, FieldValue, Lease, PackedArray, PackedDtype, Record, RecvPoll, ShmTransport,
    Window, ZERO_COPY_MIN_BYTES,
};
use proptest::prelude::*;

const DTYPES: [PackedDtype; 4] =
    [PackedDtype::F64, PackedDtype::U64, PackedDtype::I64, PackedDtype::U8];

/// One array: its dtype, its length in 8-byte units (bytes are as long as
/// words, so every dtype reaches past the bulk threshold), whether it is a
/// view, and the view's offset into its buffer.
type ArraySpec = (usize, usize, bool, usize);

/// The array `spec` describes, its bytes drawn from `salt`.
fn array((dtype, units, view, pad): ArraySpec, salt: u64) -> PackedArray {
    let le: Vec<u8> = (0..units as u64)
        .flat_map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).to_le_bytes())
        .collect();
    let dtype = DTYPES[dtype];
    let buf = Arc::new(Lease::from([&vec![0xEE; pad][..], &le, &[0xDD; 3]].concat()));
    let view_of = PackedArray::view(dtype, buf, pad, le.len());
    if view {
        return view_of;
    }
    // An owned (or inline) store: the flat decode of the same bytes.
    match Record::decode(&Record::new().with("a", FieldValue::Packed(view_of)).encode())
        .expect("decodes")
        .take("a")
    {
        Some(FieldValue::Packed(owned)) => owned,
        other => panic!("an array, not {other:?}"),
    }
}

/// A chunk-like record over `specs`: a kind, a step and the arrays, a
/// nested body holding every other one; `batch` wraps copies of it in a
/// batch record as the step protocol does.
fn record(specs: &[ArraySpec], batch: usize) -> Record {
    let one = |m: usize| {
        let mut r = Record::new().with("type", FieldValue::Str("chunk".into()));
        r.set("step", FieldValue::U64(m as u64));
        let mut body = Record::new();
        for (i, &spec) in specs.iter().enumerate() {
            let a = FieldValue::Packed(array(spec, (m * 31 + i) as u64));
            match i % 2 {
                0 => r.set_item("a", &[i], a),
                _ => body.set_item("b", &[i], a),
            }
        }
        r.with("body", FieldValue::Record(body))
    };
    if batch == 0 {
        return one(0);
    }
    let mut b = Record::new().with("type", FieldValue::Str("batch".into()));
    for m in 0..batch {
        b.set_item("m", &[m], FieldValue::Record(one(m)));
    }
    b
}

/// Every array payload of `r`, nested ones included, in wire order.
fn arrays(r: &Record) -> Vec<&PackedArray> {
    r.iter()
        .flat_map(|(_, v)| match v {
            FieldValue::Packed(p) => vec![p],
            FieldValue::Record(inner) => arrays(inner),
            _ => Vec::new(),
        })
        .collect()
}

fn next(rx: &mut BoxedReceiver) -> Lease {
    match rx.poll_lease() {
        RecvPoll::Msg(lease) => lease,
        other => panic!("a message, not {other:?}"),
    }
}

proptest! {
    #[test]
    fn a_record_sent_encoded_over_shm_decodes_as_its_flat_encoding(
        specs in proptest::collection::vec((0usize..4, 0usize..1_100, any::<bool>(), 0usize..8), 0..6),
        batch in 0usize..3,
    ) {
        let rec = record(&specs, batch);
        let flat = rec.encode();
        let bulk: Vec<&PackedArray> =
            arrays(&rec).into_iter().filter(|p| p.byte_len() >= ZERO_COPY_MIN_BYTES).collect();
        let enc = rec.encode_segments();
        let meta_fits = enc.meta().len() + 17 <= 512;
        let mapped = !bulk.is_empty() && bulk.iter().all(|p| p.is_view()) && meta_fits;

        let (mut tx, mut rx) = ShmTransport::pair(8, 512);
        tx.send_encoded(&enc);
        tx.send_encoded(&enc);
        let lease = next(&mut rx);
        prop_assert_eq!(lease.windows().len(), if mapped { bulk.len() } else { 0 });
        let got = Record::decode_leased(lease).expect("decodes");
        prop_assert_eq!(&got, &Record::decode(&flat).expect("flat decodes"));
        if mapped {
            // Each bulk view arrives as a view of the very bytes sent.
            let received: Vec<&PackedArray> =
                arrays(&got).into_iter().filter(|p| p.byte_len() >= ZERO_COPY_MIN_BYTES).collect();
            for (sent, came) in bulk.iter().zip(&received) {
                prop_assert!(came.is_view());
                prop_assert_eq!(came.bytes().as_ptr(), sent.bytes().as_ptr());
            }
        }
        prop_assert!(next(&mut rx).into_vec() == flat, "read flat, the flat encoding");
    }

    /// Windows moved off their arrays, cut short, or over metadata cut
    /// short: the channel or the decoder refuses the message, and nothing
    /// panics.
    #[test]
    fn a_mapped_message_whose_windows_miss_its_arrays_is_an_error(
        specs in proptest::collection::vec((0usize..4, 512usize..700, Just(true), 0usize..8), 1..4),
        shift in 0usize..64,
        shorten in 0usize..3,
        cut in 0usize..400,
    ) {
        let rec = record(&specs, 0);
        let enc = rec.encode_segments();
        let windows: Vec<Window> = enc.windows().expect("every payload a view").collect();
        let meta = &enc.meta()[..cut.min(enc.meta().len())];
        let victim = shift % windows.len();
        let moved: Vec<Window> = windows
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, mut w)| {
                if i == victim {
                    w.at = (w.at + shift / windows.len()).min(meta.len());
                    w.len -= shorten * 8;
                }
                w
            })
            .filter(|w| w.at <= meta.len())
            .collect();
        let sorted = moved.windows(2).all(|p| p[0].at <= p[1].at);
        prop_assume!(sorted);
        let intact = meta.len() == enc.meta().len()
            && moved.len() == windows.len()
            && moved.iter().zip(&windows).all(|(a, b)| a.at == b.at && a.len == b.len);

        let (mut tx, mut rx) = shm::shm_channel(8, 512);
        prop_assert!(tx.send_exposed(meta, moved.into_iter()));
        let lease = rx.try_recv().expect("what its sender exposed").expect("a queued frame");
        match Record::decode_leased(lease) {
            Ok(got) if intact => prop_assert_eq!(got, rec),
            Ok(got) => prop_assert_ne!(got, rec),
            Err(e) => prop_assert!(!intact, "{e}"),
        }
    }
}

/// A fault-wrapped shm sender keeps the copy path: the sequence and fault
/// layers reframe every message, so they send its bytes.
#[test]
fn a_fault_wrapped_shm_stream_sends_every_byte() {
    let mut plan = evpath::FaultPlan::new(7);
    // A sender that would crash only after a million sends: wrapped, and
    // faithful for this one.
    plan.set_default(evpath::FaultSpec {
        crash_sender_after: Some(1_000_000),
        ..evpath::FaultSpec::default()
    });
    let plan = Arc::new(plan);
    let (tx, mut rx) = ShmTransport::pair(8, 512);
    let mut tx = plan.wrap_sender("data", tx);
    let rec = record(&[(0, 1_000, true, 0)], 0);
    tx.send_encoded(&rec.encode_segments());
    let lease = next(&mut rx);
    assert!(lease.windows().is_empty());
    assert!(lease.into_vec() == rec.encode());
}
