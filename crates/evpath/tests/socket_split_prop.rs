//! The socket receiver under reads split anywhere: flat (`FXS1`) and split
//! (`FXSP`) frames written in pieces of any size, from one byte up, decode
//! to what their flat encoding decodes to, and every payload of a split
//! frame arrives as a view on an 8-byte boundary. A damaged header or
//! table is `Corrupt` and then `Closed`, never a panic, and nothing is
//! allocated past the frame cap for it; a table that passes the
//! receiver's checks but does not match its metadata gives a lease that
//! neither decoding nor skipping a header can make panic.

use std::io::{Read, Write};
use std::time::Duration;

use evpath::socket::{raw_socket_pair, SockStream, SocketKind, SPLIT_FRAME_MAGIC};
use evpath::{
    encode_frame_header, EvReceiver, EvSender, FieldValue, Lease, PackedArray, Record, RecvPoll,
    SocketReceiver, SocketSender, ZERO_COPY_MIN_BYTES,
};
use proptest::prelude::*;
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The receivers' frame cap in these tests: a power of two, so that a
/// frame at the cap is received into buffers no larger than it.
const CAP: u32 = 1 << 20;

/// One array: its element type and length in 8-byte units.
type ArraySpec = (usize, usize);

/// A record behind a name of `head` bytes (which shifts every payload's
/// offset) holding one array per spec, in every element type.
fn record(head: usize, specs: &[ArraySpec]) -> Record {
    let mut r = Record::new().with("type", FieldValue::Str("h".repeat(head).into()));
    for (i, &(dtype, units)) in specs.iter().enumerate() {
        let word = |k: usize| (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let value = match dtype {
            0 => FieldValue::from((0..units).map(|k| word(k) as f64).collect::<Vec<_>>()),
            1 => FieldValue::from((0..units).map(word).collect::<Vec<_>>()),
            2 => FieldValue::from((0..units).map(|k| word(k) as i64).collect::<Vec<_>>()),
            _ => FieldValue::from((0..units * 8).map(|k| word(k) as u8).collect::<Vec<_>>()),
        };
        r.set_item("a", &[i], value);
    }
    r
}

/// `rec` as a flat frame.
fn flat_frame(rec: &Record) -> Vec<u8> {
    let bytes = rec.encode();
    [&encode_frame_header(bytes.len() as u32)[..], &bytes].concat()
}

/// `rec` as a split frame, laid out by hand from the module's diagram.
fn split_frame(rec: &Record) -> Vec<u8> {
    let enc = rec.encode_segments();
    let mut out = SPLIT_FRAME_MAGIC.to_vec();
    out.extend((enc.total_len() as u32).to_le_bytes());
    out.extend((enc.payloads().len() as u32).to_le_bytes());
    for (at, p) in enc.payloads() {
        out.extend((at as u32).to_le_bytes());
        out.extend((p.len() as u32).to_le_bytes());
    }
    out.extend(enc.meta());
    enc.payloads().for_each(|(_, p)| out.extend(p));
    out
}

/// Every array of `r` of at least the bulk threshold.
fn bulk(r: &Record) -> Vec<&PackedArray> {
    r.iter()
        .filter_map(|(_, v)| match v {
            FieldValue::Packed(p) if p.byte_len() >= ZERO_COPY_MIN_BYTES => Some(p),
            _ => None,
        })
        .collect()
}

/// A receiver whose peer writes `bytes` in pieces of the `pieces` sizes
/// (cycled), then hangs up.
fn receiving(bytes: Vec<u8>, pieces: Vec<usize>) -> (SocketReceiver, std::thread::JoinHandle<()>) {
    let (mut tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let writer = std::thread::spawn(move || {
        let mut rest = &bytes[..];
        for &n in pieces.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            if tx.write_all(piece).is_err() {
                break;
            }
            rest = tail;
        }
    });
    let mut rx = SocketReceiver::over(rx);
    rx.set_max_frame(CAP);
    (rx, writer)
}

/// The next outcome that is not `Empty`.
fn next(rx: &mut SocketReceiver) -> RecvPoll<Lease> {
    loop {
        match rx.poll_lease() {
            RecvPoll::Empty => {
                rx.wait_readable(Duration::from_millis(100));
            }
            other => return other,
        }
    }
}

fn closed(outcome: RecvPoll<Lease>) -> bool {
    matches!(outcome, RecvPoll::Closed)
}

fn lease(outcome: RecvPoll<Lease>) -> Lease {
    match outcome {
        RecvPoll::Msg(lease) => lease,
        other => panic!("a message, not {other:?}"),
    }
}

fn arrays() -> impl Strategy<Value = Vec<ArraySpec>> {
    proptest::collection::vec((0usize..4, 0usize..1_100), 0..4)
}

proptest! {
    #[test]
    fn frames_read_in_pieces_of_any_size_decode_as_their_flat_encoding(
        frames in proptest::collection::vec((0usize..8, arrays(), any::<bool>()), 1..5),
        pieces in proptest::collection::vec(prop_oneof![1usize..16, 1usize..20_000], 1..32),
    ) {
        let records: Vec<(Record, bool)> =
            frames.iter().map(|(head, specs, split)| (record(*head, specs), *split)).collect();
        let bytes: Vec<u8> = records
            .iter()
            .flat_map(|(rec, split)| if *split { split_frame(rec) } else { flat_frame(rec) })
            .collect();
        let (mut rx, writer) = receiving(bytes, pieces.clone());
        for (rec, split) in &records {
            let got = Record::decode_leased(lease(next(&mut rx))).expect("decodes");
            prop_assert_eq!(&got, &Record::decode(&rec.encode()).expect("flat decodes"));
            if *split {
                for p in bulk(&got) {
                    prop_assert!(p.is_view());
                    prop_assert!(p.bytes().as_ptr().cast::<u64>().is_aligned(), "{:?}", p);
                }
            }
        }
        writer.join().unwrap();
        prop_assert!(closed(next(&mut rx)));
    }

    /// Offsets moved anywhere inside the metadata (in order): the receiver
    /// takes the frame, and its lease decodes to something or to an error.
    #[test]
    fn a_table_that_misplaces_its_payloads_neither_decodes_nor_skips_into_a_panic(
        head in 0usize..8,
        specs in proptest::collection::vec((0usize..4, 512usize..1_100), 1..4),
        places in proptest::collection::vec(any::<usize>(), 4),
    ) {
        let rec = record(head, &specs);
        let enc = rec.encode_segments();
        let meta_len = enc.meta().len();
        let mut ats: Vec<usize> = places[..specs.len()].iter().map(|i| i % (meta_len + 1)).collect();
        ats.sort_unstable();
        let mut frame = split_frame(&rec);
        for (i, at) in ats.iter().enumerate() {
            let entry = 12 + 8 * i;
            frame[entry..entry + 4].copy_from_slice(&(*at as u32).to_le_bytes());
        }
        let (mut rx, writer) = receiving([&frame[..], &frame].concat(), vec![usize::MAX]);
        let _ = Record::decode_leased(lease(next(&mut rx)));
        let mut skipped = lease(next(&mut rx));
        if skipped.len() >= 8 {
            skipped.skip(8);
        }
        let _ = Record::decode_leased(skipped);
        writer.join().unwrap();
        prop_assert!(closed(next(&mut rx)));
    }

    /// Any byte of a split frame's header or table changed: messages,
    /// then `Corrupt` at most once and `Closed`; never a panic, never an
    /// allocation past the cap.
    #[test]
    fn a_damaged_split_frame_head_never_panics_or_allocates_past_the_cap(
        head in 0usize..8,
        specs in proptest::collection::vec((0usize..4, 512usize..1_100), 1..4),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let rec = record(head, &specs);
        let mut frame = split_frame(&rec);
        let i = at % (12 + 8 * specs.len());
        frame[i] = byte;
        let (mut rx, writer) = receiving(frame, vec![usize::MAX]);
        let (counts, corrupt_at) = measure(CAP as usize + 1, || {
            let mut corrupt_at = Vec::new();
            for n in 0.. {
                match next(&mut rx) {
                    RecvPoll::Closed => break,
                    RecvPoll::Msg(lease) => drop(Record::decode_leased(lease)),
                    _ => corrupt_at.push(n),
                }
            }
            corrupt_at
        });
        prop_assert_eq!(counts.at_or_over(), 0, "{:?}", counts);
        prop_assert!(corrupt_at.len() <= 1, "Corrupt at {:?}", corrupt_at);
        writer.join().unwrap();
        prop_assert!(closed(next(&mut rx)));
    }
}

#[test]
fn damaged_headers_and_tables_are_corrupt_then_closed() {
    let rec = record(5, &[(0, 600), (1, 700), (3, 800)]);
    let good = split_frame(&rec);
    let enc = rec.encode_segments();
    let meta_len = enc.meta().len() as u32;
    let places: Vec<(u32, u32)> =
        enc.payloads().map(|(at, p)| (at as u32, p.len() as u32)).collect();
    let with = |offset: usize, word: u32| {
        let mut frame = good.clone();
        frame[offset..offset + 4].copy_from_slice(&word.to_le_bytes());
        frame
    };
    let entry = |i: usize| 12 + 8 * i;
    let cases: [(&str, Vec<u8>, &str); 7] = [
        ("a huge count", with(8, u32::MAX), "split frame table too long for its frame"),
        (
            "one entry more than the length allows",
            with(8, enc.total_len() as u32 / ZERO_COPY_MIN_BYTES as u32 + 1),
            "split frame table too long for its frame",
        ),
        ("decreasing offsets", with(entry(1), places[0].0 - 1), "split frame offsets decrease"),
        (
            "an offset past the metadata",
            with(entry(2), meta_len + 1),
            "split frame offset past the metadata",
        ),
        (
            "lengths over the frame",
            with(entry(0) + 4, places[0].1 + meta_len + 1),
            "split frame payloads overrun the frame",
        ),
        ("a length over the cap", with(4, CAP + 1), "frame length exceeds cap"),
        ("a frame cut off mid-table", good[..entry(1) + 3].to_vec(), "truncated split frame table"),
    ];
    for (what, frame, reason) in cases {
        let (mut rx, writer) = receiving(frame, vec![usize::MAX]);
        let (counts, outcome) = measure(CAP as usize + 1, || next(&mut rx));
        assert!(matches!(outcome, RecvPoll::Corrupt(r) if r == reason), "{what}: {outcome:?}");
        assert_eq!(counts.at_or_over(), 0, "{what}: {counts:?}");
        assert!(closed(next(&mut rx)), "{what}");
        writer.join().unwrap();
    }
    // The frame itself is fine, and so is a flat frame from a peer that
    // never sends split ones.
    let (mut rx, writer) = receiving([flat_frame(&rec), good].concat(), vec![1, 4096]);
    for _ in 0..2 {
        assert_eq!(Record::decode_leased(lease(next(&mut rx))).unwrap(), rec);
    }
    writer.join().unwrap();
}

/// What `SocketSender::send_encoded` puts on the wire is the documented
/// split frame, byte for byte, and a record with no bulk payload the flat
/// frame.
#[test]
fn the_sender_writes_the_documented_frames() {
    for rec in [record(3, &[(0, 600), (3, 513)]), record(2, &[(1, 4)])] {
        let expect = if bulk(&rec).is_empty() { flat_frame(&rec) } else { split_frame(&rec) };
        let (tx, mut raw): (SockStream, SockStream) = raw_socket_pair(SocketKind::Uds);
        let mut tx = SocketSender::over(tx);
        tx.send_encoded(&rec.encode_segments());
        drop(tx);
        let mut wire = Vec::new();
        raw.read_to_end(&mut wire).unwrap();
        assert!(wire == expect, "{} bytes on the wire, {} expected", wire.len(), expect.len());
    }
}
