//! The ffs decoder on bytes nobody wrote for it: `Record::decode` and
//! `Record::decode_leased` return a record or an error, never panic, and
//! allocate no more than a small multiple of the input's length — on
//! arbitrary bytes, and on every prefix and every start offset of real
//! `writer_info`, `go` and `chunk` frames (where a declared field count
//! or array length meets fewer bytes than it claims).

use adios::{ArrayData, BoxSel, LocalBlock, VarValue};
use evpath::{Lease, Record};
use flexio::plugins::PluginBody;
use flexio::protocol::{self, Go};
use flexio::query::Expr;
use flexio::redistribute::{ChunkPlan, VarMeta};
use flexio::{PluginPlacement, PluginSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The ffs magic, `FFS1` as a little-endian word.
const MAGIC: [u8; 4] = 0x4646_5331u32.to_le_bytes();

/// A decoded field takes 64 bytes of vector and at least 7 wire bytes, so
/// the field vector the decoder sizes from a declared count stays under
/// ten bytes per input byte; the slack covers the lease's handle.
fn allocation_bound(input_len: usize) -> usize {
    10 * input_len + 256
}

/// Decode `bytes` both ways; panics (failing the test) if either
/// decoder panics or asks for a block past [`allocation_bound`].
fn decode_both(bytes: &[u8]) {
    let (counts, _) = measure(0, || Record::decode(bytes));
    assert!(
        counts.largest <= allocation_bound(bytes.len()),
        "decode of {} bytes asked for {} at once",
        bytes.len(),
        counts.largest
    );
    let lease = Lease::from(bytes.to_vec());
    let (counts, _) = measure(0, || Record::decode_leased(lease));
    assert!(
        counts.largest <= allocation_bound(bytes.len()),
        "decode_leased of {} bytes asked for {} at once",
        bytes.len(),
        counts.largest
    );
}

fn block(n: usize) -> VarValue {
    VarValue::Block(
        LocalBlock {
            global_shape: vec![n as u64 * 2],
            offset: vec![n as u64],
            count: vec![n as u64],
            data: ArrayData::F64((0..n).map(|i| i as f64).collect()),
        }
        .validated(),
    )
}

/// Real frames of the three messages that carry the most structure.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let meta = |name: &str, n: usize| VarMeta::of(name, &block(n));
    let dists =
        vec![vec![meta("zion", 4), VarMeta::Scalar { name: "t".into() }], vec![meta("zion", 2)]];
    let plan = vec![
        vec![
            ChunkPlan { var: "zion".into(), region: None },
            ChunkPlan { var: "field".into(), region: Some(BoxSel::new(vec![2, 0], vec![1, 6])) },
        ],
        Vec::new(),
    ];
    let plugins = vec![PluginSpec {
        var: "zion".into(),
        source: PluginBody::Filter(Expr::col("zion").lt(Expr::lit(0.5))),
        placement: PluginPlacement::WriterSide,
    }];
    let go = Go { step: 9, plan: Some(plan), plugins: Some(plugins), roster: Some((2, 1)) };
    let extras = vec![("dc_count".to_string(), block(1))];
    vec![
        ("writer_info", protocol::writer_info(&dists).encode()),
        ("go", go.to_record().encode()),
        ("chunk", protocol::chunk(9, 1, "zion", block(6).to_record(), &extras).encode()),
    ]
}

#[test]
fn every_prefix_and_start_offset_of_real_frames_decodes_or_errs() {
    for (name, frame) in frames() {
        assert!(Record::decode(&frame).is_ok(), "{name} decodes whole");
        for end in 0..frame.len() {
            decode_both(&frame[..end]);
        }
        for start in 0..frame.len() {
            decode_both(&frame[start..]);
            // Behind a magic, the body decoder itself starts mid-frame.
            decode_both(&[&MAGIC[..], &frame[start..]].concat());
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_or_err(bytes in vec(any::<u8>(), 0..512)) {
        decode_both(&bytes);
        // And as a body behind a valid magic, where counts and lengths
        // are read from garbage.
        decode_both(&[&MAGIC[..], &bytes[..]].concat());
    }
}

#[test]
fn a_parsed_frame_is_still_the_frame() {
    // The prefixes above fail; the whole frames parse back to a value.
    for (name, frame) in frames() {
        let r = Record::decode(&frame).unwrap();
        let ok = match name {
            "writer_info" => protocol::parse_writer_info(r).is_ok(),
            "go" => Go::from_record(r).is_ok(),
            _ => protocol::parse_chunk(r).is_ok_and(|c| c.value == block(6)),
        };
        assert!(ok, "{name}");
    }
}
