//! The allocation ledger of a control-plane-bound step, and of the two
//! step-protocol messages it is mostly made of.
//!
//! A 1×1 shm coupling under `NO_CACHING` and sync writes runs the whole
//! 4-step handshake on every step: a step header, `writer_info`,
//! `reader_info`, eight 4 KiB chunks and their ack. The payloads are views
//! that the shm channel exposes to the reader in place, so what the step
//! allocates is control-plane bookkeeping: records, their strings and
//! small vectors. `CountingAlloc`
//! counts every request of both rank threads while the step runs, and
//! the ledger pins the sum per step after warm-up, and the share of it
//! that asks for 8 bytes or fewer. The codec pins count one build +
//! encode + decode + parse round of `writer_info` and of `chunk`, where a
//! `format!` list key or a cloned name shows at once.

mod common;

use adios::{ArrayData, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::couple;
use evpath::{PackedArray, Record};
use flexio::protocol;
use flexio::redistribute::VarMeta;
use flexio::{CachingLevel, StreamHints, Transport, WriteMode};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VARS: usize = 8;
const ELEMS: usize = 512;
const STEPS: u64 = 16;
/// Steps before the pin applies: the first exchange ships the plug-in
/// registry and sizes the reader's stores; a few more let every reused
/// buffer reach its steady capacity.
const WARMUP: u64 = 4;

fn names() -> Vec<String> {
    (0..VARS).map(|v| format!("ctl{v}")).collect()
}

fn value(v: usize) -> VarValue {
    let data: Vec<f64> = (0..ELEMS).map(|i| (v * ELEMS + i) as f64 * 0.5).collect();
    let shape = vec![ELEMS as u64];
    VarValue::Block(
        LocalBlock {
            offset: vec![0],
            count: shape.clone(),
            global_shape: shape,
            data: ArrayData::Packed(PackedArray::from_f64s(&data)),
        }
        .validated(),
    )
}

/// Fresh allocations of at least `threshold` bytes per step of each side,
/// `STEPS` entries. Reallocations are left out: they follow the capacities
/// of buffers reused from step to step, which grow in amortized jumps.
fn ledger(caching: CachingLevel, threshold: usize) -> (Vec<usize>, Vec<usize>) {
    let hints = StreamHints::builder()
        .transport(Transport::Shm)
        .caching(caching)
        .write_mode(WriteMode::Sync)
        .build();
    let (writes, reads) = couple(
        1,
        1,
        hints,
        move |mut w, _rank| {
            let names = names();
            let values: Vec<VarValue> = (0..VARS).map(value).collect();
            let mut per_step = Vec::new();
            for step in 0..STEPS {
                // The application's own copies are made outside the
                // ledger: it counts what the library asks for.
                let mut vars: Vec<VarValue> = values.clone();
                let (counts, ()) = measure(threshold, || {
                    w.begin_step(step);
                    for (name, v) in names.iter().zip(vars.drain(..)) {
                        w.write(name, v);
                    }
                    w.end_step();
                });
                per_step.push(counts.allocs);
            }
            w.close();
            per_step
        },
        move |mut r, _rank| {
            let names = names();
            for name in &names {
                r.subscribe(name, Selection::ProcessGroup(0));
            }
            let mut per_step = Vec::new();
            loop {
                let (counts, more) = measure(threshold, || {
                    let StepStatus::Step(_) = r.try_begin_step().expect("begin_step") else {
                        return false;
                    };
                    for name in &names {
                        let v = r.read(name, &Selection::ProcessGroup(0)).expect("whole value");
                        assert!(matches!(v, VarValue::Block(ref b) if b.data.len() == ELEMS));
                    }
                    r.end_step();
                    true
                });
                if !more {
                    break;
                }
                per_step.push(counts.allocs);
            }
            per_step
        },
    );
    let (writer, reader) = (writes.into_iter().next().unwrap(), reads.into_iter().next().unwrap());
    assert_eq!((writer.len(), reader.len()), (STEPS as usize, STEPS as usize));
    (writer, reader)
}

/// The steady steps of one side of a ledger.
fn steady(per_step: &[usize]) -> &[usize] {
    &per_step[WARMUP as usize..]
}

/// Writer and reader rank together, per steady step.
fn both_sides((writer, reader): (Vec<usize>, Vec<usize>)) -> Vec<usize> {
    steady(&writer).iter().zip(steady(&reader)).map(|(w, r)| w + r).collect()
}

/// A steady `NO_CACHING` step, writer and reader rank together: 904 when
/// every field name was a `String`, every list key a `format!` and every
/// parser cloned what it read; 434 while the coordinator cloned every
/// reader's subscriptions to plan over and the reader dropped its chunk
/// store's vectors at each `end_step`; 415 while both coordinators
/// rebuilt, re-encoded, re-parsed and re-planned an unchanged exchange
/// every step and every short name and shape was a heap buffer; 136 while
/// the shm queue copied every entry out into a fresh vector (a pooled
/// frame's 25-byte descriptor included), an inline send built its frame
/// before copying it into the entry, and every encoded chunk kept a
/// segment vector beside its metadata; 116 while every chunk's payload
/// was copied into a pool buffer; 124 while a mapped chunk's receive copied
/// its metadata into a fresh vector (now a buffer from the receiver's
/// metadata pool, −8) and took its window in another (now inline in the
/// lease, −8). A mapped chunk's decode does not wrap the lease in an `Arc`,
/// the metadata being too short to hold a view.
const STEP_ALLOCS: usize = 108;

/// The share of [`STEP_ALLOCS`] that asks for 8 bytes or fewer (260 of
/// the 415): the reader's block shapes, moved out of each chunk (24) and
/// cloned by `read` (24) — `LocalBlock` holds them as `Vec<u64>` — and
/// the names `ProcessGroup::push` copies (8).
const SMALL_STEP_ALLOCS: usize = 56;

/// The writer rank's share of a steady `CACHING_ALL` step, which neither
/// gathers nor exchanges distributions, nor draws up a plan (120 while it
/// drew up one every step and threw it away, 99 while every message kind
/// and chunk shape was a heap buffer, 48 while every encoded chunk kept a
/// segment vector and an inline send built its frame apart).
const CACHED_WRITER_STEP_ALLOCS: usize = 39;

#[test]
fn a_control_bound_step_allocates_a_pinned_count() {
    let both = both_sides(ledger(CachingLevel::NoCaching, 0));
    assert!(
        both.iter().all(|&n| n == STEP_ALLOCS),
        "allocations per step after warm-up {both:?}, pinned at {STEP_ALLOCS}"
    );
}

#[test]
fn a_control_bound_step_makes_a_pinned_count_of_small_allocations() {
    let all = both_sides(ledger(CachingLevel::NoCaching, 0));
    let over_8 = both_sides(ledger(CachingLevel::NoCaching, 9));
    let small: Vec<usize> = all.iter().zip(&over_8).map(|(a, o)| a - o).collect();
    assert!(
        small.iter().all(|&n| n == SMALL_STEP_ALLOCS),
        "allocations of at most 8 bytes per step {small:?}, pinned at {SMALL_STEP_ALLOCS}"
    );
}

#[test]
fn a_cached_step_derives_no_distributions() {
    let (writer, _) = ledger(CachingLevel::CachingAll, 0);
    assert!(
        steady(&writer).iter().all(|&n| n == CACHED_WRITER_STEP_ALLOCS),
        "writer allocations per cached step {writer:?}, pinned at {CACHED_WRITER_STEP_ALLOCS}"
    );
}

fn metas() -> Vec<VarMeta> {
    names().iter().enumerate().map(|(v, name)| VarMeta::of(name, &value(v))).collect()
}

/// Build, encode, decode and parse one message; the allocations of each
/// leg.
fn round(build: impl FnOnce() -> Record, parse: impl FnOnce(Record)) -> [usize; 4] {
    let (built, record) = measure(0, build);
    let (encoded, bytes) = measure(0, || record.encode());
    drop(record);
    let (decoded, record) = measure(0, || Record::decode(&bytes).expect("own encoding"));
    let (parsed, ()) = measure(0, || parse(record));
    [built, encoded, decoded, parsed].map(|c| c.at_or_over())
}

/// `writer_info` for one rank of eight blocks. Building: per variable a
/// record, then the list record and the message record (10; names, shapes
/// and the type tag are inline); the encode is one buffer; decoding
/// allocates what building did; parsing makes the two result vectors and
/// per variable the `String` name and three `Vec<u64>` shapes `VarMeta`
/// holds (34). A `format!` list key would add one per item. (43, 1, 43, 2
/// while names and shapes were heap buffers in the record.)
#[test]
fn writer_info_allocations_are_pinned() {
    let per_rank = vec![metas()];
    let legs = round(
        || protocol::writer_info(&per_rank),
        |r| {
            let dists = protocol::parse_writer_info(r).expect("parses");
            assert_eq!(dists, per_rank);
        },
    );
    assert_eq!(legs, [10, 1, 10, 34], "writer_info: build, encode, decode, parse");
}

/// A 4 KiB chunk: the message record and the body record (2; the type,
/// the variable name and the shapes are inline); decoding adds the owned
/// payload (3); parsing makes the three `Vec<u64>` shapes `LocalBlock`
/// holds (3). (7, 1, 8, 0 while names and shapes were heap buffers.)
#[test]
fn chunk_allocations_are_pinned() {
    let v = value(3);
    let legs = round(
        || protocol::chunk(7, 0, "ctl3", v.to_record(), &[]),
        |r| {
            let chunk = protocol::parse_chunk(r).expect("parses");
            assert_eq!(chunk.value, v);
        },
    );
    assert_eq!(legs, [2, 1, 3, 3], "chunk: build, encode, decode, parse");
}
