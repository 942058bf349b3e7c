//! BP spill edge cases: retention-boundary rollover, the cursor exactly
//! at the memory↔spill seam, truncated/corrupt segments surfacing as
//! [`StreamError::Corrupt`] (never wrong-data replay), and torn durable
//! cursors degrading to replay-from-start.

use std::path::{Path, PathBuf};
use std::time::Duration;

use adios::{ReadEngine, ScalarValue, StepStatus, VarValue, WriteEngine};
use flexio::link::StreamError;
use flexio::{FlexIo, PubSubConfig, Qos, ReaderGroup, SpillStore, StreamHints};
use machine::laptop;

fn hints() -> StreamHints {
    StreamHints { recv_timeout: Duration::from_millis(300), retries: 0, ..StreamHints::default() }
}

fn temp_spill(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexio-spill-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn publish(io: &FlexIo, stream: &str, spill: &Path, replay_steps: usize, steps: u64) {
    let cfg = PubSubConfig {
        replay_steps,
        spill_dir: Some(spill.to_path_buf()),
        ..PubSubConfig::default()
    };
    let mut w = io.open_publisher(stream, 0, 1, &cfg, hints()).expect("open publisher");
    for step in 0..steps {
        w.begin_step(step);
        w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64)));
        w.end_step();
    }
    w.close();
}

fn drain_steps(r: &mut ReaderGroup) -> Vec<u64> {
    let mut steps = Vec::new();
    loop {
        match r.try_begin_step().expect("begin_step") {
            StepStatus::Step(step) => {
                let VarValue::Scalar(ScalarValue::F64(t)) =
                    r.read("t", &adios::Selection::Scalar).expect("t present")
                else {
                    panic!("scalar expected")
                };
                assert_eq!(t, step as f64, "payload must match its step");
                steps.push(step);
                r.end_step();
            }
            StepStatus::EndOfStream => break,
        }
    }
    steps
}

#[test]
fn rollover_at_exact_retention_boundaries() {
    let io = FlexIo::single_node(laptop());
    // Ring bound 4; publish exactly 4, 5 (one past), and 8 (two full
    // rings) steps — every boundary case must replay completely.
    for (tag, steps) in [("ro4", 4u64), ("ro5", 5), ("ro8", 8)] {
        let spill = temp_spill(tag);
        publish(&io, tag, &spill, 4, steps);
        let mut r =
            ReaderGroup::tail(&spill, tag, "g", Qos::Lossless, &hints()).expect("tail attach");
        assert_eq!(drain_steps(&mut r), (0..steps).collect::<Vec<_>>(), "{tag} lost steps");
        std::fs::remove_dir_all(&spill).ok();
    }
}

#[test]
fn cursor_exactly_at_memory_spill_seam() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("seam");
    let cfg =
        PubSubConfig { replay_steps: 4, spill_dir: Some(spill.clone()), ..PubSubConfig::default() };
    let mut w = io.open_publisher("seam", 0, 1, &cfg, hints()).expect("open publisher");
    for step in 0..8 {
        w.begin_step(step);
        w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64)));
        w.end_step();
    }
    // Ring holds seqs [4, 8); seqs [0, 4) are spill-only.
    assert_eq!(w.log().mem_start(), 4);
    assert_eq!(w.log().tail(), 8);

    let mut r = io.open_reader_group("seam", "g", None, hints()).expect("open group");
    w.close();
    assert_eq!(drain_steps(&mut r), (0..8).collect::<Vec<_>>());
    let (delivered, replayed, _, _) = r.counters().snapshot();
    assert_eq!(delivered, 8);
    assert_eq!(
        replayed, 4,
        "exactly the evicted prefix replays from spill; the step at the seam comes from memory"
    );
}

#[test]
fn truncated_segment_surfaces_as_corrupt_not_wrong_data() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("trunc");
    publish(&io, "trunc", &spill, 2, 6);

    // Truncate the third segment to half its size — a crash mid-write of
    // a non-atomic copy, or disk damage.
    let store = SpillStore::open(&spill, "trunc");
    let victim = store.dir().join("step-0000000002.bp");
    let bytes = std::fs::read(&victim).expect("segment exists");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");

    let mut r =
        ReaderGroup::tail(&spill, "trunc", "g", Qos::Lossless, &hints()).expect("tail attach");
    for want in 0..2 {
        let StepStatus::Step(step) = r.try_begin_step().expect("intact prefix reads fine") else {
            panic!("step expected")
        };
        assert_eq!(step, want);
        r.end_step();
    }
    let err = r.try_begin_step().expect_err("the truncated segment must fail loudly");
    assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}, want Corrupt");
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn swapped_segment_content_is_rejected() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("swap");
    publish(&io, "swap", &spill, 2, 4);

    // Overwrite segment 1 with segment 3's bytes: a valid BP container,
    // but the wrong step — replay must reject it, not deliver step 3
    // twice under step 1's position.
    let store = SpillStore::open(&spill, "swap");
    let wrong = std::fs::read(store.dir().join("step-0000000003.bp")).expect("segment 3");
    std::fs::write(store.dir().join("step-0000000001.bp"), &wrong).expect("swap in");

    let err = store.read_step(1).expect_err("label mismatch must surface");
    assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}, want Corrupt");
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn corrupt_manifest_is_rejected() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("badman");
    publish(&io, "badman", &spill, 2, 3);

    let store = SpillStore::open(&spill, "badman");
    assert_eq!(store.read_manifest().expect("valid manifest").map(|m| m.tail), Some(3));

    // Flip the tail field without fixing the checksum: a torn write.
    let path = store.dir().join("MANIFEST");
    let good = std::fs::read_to_string(&path).expect("manifest");
    std::fs::write(&path, good.replace("tail=3", "tail=9")).expect("corrupt");
    let err = store.read_manifest().expect_err("checksum must catch the tear");
    assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}, want Corrupt");

    // And the attach path surfaces it instead of trusting tail=9.
    match ReaderGroup::tail(&spill, "badman", "g", Qos::Lossless, &hints()) {
        Err(err) => {
            assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}, want Corrupt")
        }
        Ok(_) => panic!("attach must refuse a corrupt manifest"),
    }
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn torn_cursor_degrades_to_replay_from_start() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("torncur");
    publish(&io, "torncur", &spill, 4, 5);

    // Consume 3 steps so a durable cursor exists, then tear it.
    {
        let mut r = ReaderGroup::tail(&spill, "torncur", "g", Qos::Lossless, &hints())
            .expect("tail attach");
        for _ in 0..3 {
            assert!(matches!(r.try_begin_step().expect("step"), StepStatus::Step(_)));
            r.end_step();
        }
    }
    let store = SpillStore::open(&spill, "torncur");
    assert_eq!(store.read_cursor("g"), Some(3));
    let path = store.dir().join("cursor-g.cur");
    let good = std::fs::read_to_string(&path).expect("cursor file");
    std::fs::write(&path, &good[..good.len() / 2]).expect("tear");
    assert_eq!(store.read_cursor("g"), None, "a torn cursor reads as absent");

    // At-least-once: the restart replays everything rather than skipping.
    let mut r =
        ReaderGroup::tail(&spill, "torncur", "g", Qos::Lossless, &hints()).expect("re-attach");
    assert_eq!(drain_steps(&mut r), vec![0, 1, 2, 3, 4]);
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn tail_group_counts_one_synthesized_eos() {
    // A publisher that crashes never finalizes the manifest: a tail group
    // drains what was spilled, and its silence becomes one EOS, counted once.
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("tail-eos");
    let cfg = PubSubConfig { spill_dir: Some(spill.clone()), ..PubSubConfig::default() };
    let mut w = io.open_publisher("tail-eos", 0, 1, &cfg, hints()).expect("open publisher");
    for step in 0..2 {
        w.begin_step(step);
        w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64)));
        w.end_step();
    }
    w.abandon();
    let silent = StreamHints { eos_on_silence: true, ..hints() };
    let mut r = ReaderGroup::tail(&spill, "tail-eos", "g", Qos::Lossless, &silent).expect("tail");
    assert_eq!(drain_steps(&mut r), vec![0, 1]);
    assert_eq!(r.counters().eos_synthesized.load(std::sync::atomic::Ordering::Relaxed), 1);
    std::fs::remove_dir_all(&spill).ok();
}
