//! Core pub/sub semantics on the in-process [`StreamLog`]: ordered
//! delivery through the ADIOS step API, zero-copy fan-out, per-group
//! QoS, publisher backpressure, spill replay for late joiners, durable
//! cursor resume, and the crashed-writer drain-to-EOS invariant.

use std::path::PathBuf;
use std::time::Duration;

use adios::{BoxSel, ReadEngine, ScalarValue, Selection, StepStatus, VarValue, WriteEngine};
use flexio::{FlexIo, PubSubConfig, Qos, ReaderGroup, StreamHints};
use machine::laptop;

const ELEMS: u64 = 8;

fn hints() -> StreamHints {
    StreamHints { recv_timeout: Duration::from_millis(300), retries: 1, ..StreamHints::default() }
}

fn temp_spill(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexio-pubsub-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn publish_step(w: &mut dyn WriteEngine, step: u64) {
    w.begin_step(step);
    let data: Vec<f64> = (0..ELEMS).map(|e| (step * 100 + e) as f64).collect();
    w.write(
        "u",
        VarValue::Block(
            adios::LocalBlock {
                global_shape: vec![ELEMS],
                offset: vec![0],
                count: vec![ELEMS],
                data: adios::ArrayData::F64(data),
            }
            .validated(),
        ),
    );
    w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64 * 0.5)));
    w.end_step();
}

/// Drain a group to EOS, checking payloads, and return the step indices.
fn drain(r: &mut ReaderGroup) -> Vec<u64> {
    let whole = Selection::GlobalBox(BoxSel::whole(&[ELEMS]));
    let mut steps = Vec::new();
    loop {
        match r.try_begin_step().expect("begin_step") {
            StepStatus::Step(step) => {
                let VarValue::Block(b) = r.read("u", &whole).expect("u present") else {
                    panic!("block expected")
                };
                for (e, &x) in b.data.as_f64().iter().enumerate() {
                    assert_eq!(x, (step * 100 + e as u64) as f64, "step {step} elem {e}");
                }
                let VarValue::Scalar(ScalarValue::F64(t)) =
                    r.read("t", &Selection::Scalar).expect("t present")
                else {
                    panic!("scalar expected")
                };
                assert_eq!(t, step as f64 * 0.5);
                steps.push(step);
                r.end_step();
            }
            StepStatus::EndOfStream => break,
        }
    }
    r.close();
    steps
}

#[test]
fn single_group_delivers_every_step_in_order() {
    let io = FlexIo::single_node(laptop());
    let mut w =
        io.open_publisher("s1", 0, 1, &PubSubConfig::default(), hints()).expect("open publisher");
    let mut r = io.open_reader_group("s1", "g0", None, hints()).expect("open group");
    for step in 0..5 {
        publish_step(&mut w, step);
    }
    w.close();
    assert_eq!(drain(&mut r), vec![0, 1, 2, 3, 4]);
    let (delivered, replayed, dropped, lag) = r.counters().snapshot();
    assert_eq!((delivered, replayed, dropped, lag), (5, 0, 0, 0));
}

#[test]
fn fanout_groups_share_identical_bytes() {
    let io = FlexIo::single_node(laptop());
    let mut w =
        io.open_publisher("s2", 0, 1, &PubSubConfig::default(), hints()).expect("open publisher");
    let mut groups: Vec<ReaderGroup> = (0..4)
        .map(|g| io.open_reader_group("s2", &format!("g{g}"), None, hints()).expect("open group"))
        .collect();
    for step in 0..6 {
        publish_step(&mut w, step);
    }
    w.close();

    let mut digest_seqs: Vec<Vec<(u64, u64)>> = Vec::new();
    for r in &mut groups {
        let mut seq = Vec::new();
        loop {
            match r.try_begin_step().expect("begin_step") {
                StepStatus::Step(step) => {
                    seq.push((step, r.current_step_digest().expect("digest")));
                    r.end_step();
                }
                StepStatus::EndOfStream => break,
            }
        }
        digest_seqs.push(seq);
    }
    assert_eq!(digest_seqs[0].len(), 6);
    for (g, seq) in digest_seqs.iter().enumerate() {
        assert_eq!(seq, &digest_seqs[0], "group {g} diverged from group 0");
    }
}

#[test]
fn multi_rank_steps_seal_in_order_despite_skewed_ranks() {
    let io = FlexIo::single_node(laptop());
    let cfg = PubSubConfig::default();
    let mut w0 = io.open_publisher("s3", 0, 2, &cfg, hints()).expect("rank 0");
    let mut w1 = io.open_publisher("s3", 1, 2, &cfg, hints()).expect("rank 1");
    let mut r = io.open_reader_group("s3", "g0", None, hints()).expect("open group");

    // Rank 1 races two steps ahead; nothing seals until rank 0 shows up.
    for step in 0..2 {
        w1.begin_step(step);
        w1.write("t", VarValue::Scalar(ScalarValue::F64(100.0 + step as f64)));
        w1.end_step();
    }
    assert_eq!(w0.log().tail(), 0, "incomplete steps must not seal");
    for step in 0..2 {
        w0.begin_step(step);
        w0.write("t", VarValue::Scalar(ScalarValue::F64(step as f64)));
        w0.end_step();
    }
    assert_eq!(w0.log().tail(), 2);
    w0.close();
    w1.close();

    let mut seen = Vec::new();
    loop {
        match r.try_begin_step().expect("begin_step") {
            StepStatus::Step(step) => {
                // Both ranks' groups are present and rank-ordered: the
                // first scalar is rank 0's.
                let t = |v: f64| Some(VarValue::Scalar(ScalarValue::F64(v)));
                assert_eq!(r.read("t", &Selection::Scalar), t(step as f64));
                assert_eq!(r.read("t", &Selection::ProcessGroup(1)), t(100.0 + step as f64));
                assert_eq!(r.read("t", &Selection::ProcessGroup(2)), None);
                seen.push(step);
                r.end_step();
            }
            StepStatus::EndOfStream => break,
        }
    }
    assert_eq!(seen, vec![0, 1]);
}

#[test]
fn latest_only_skips_to_newest_and_accounts_drops() {
    let io = FlexIo::single_node(laptop());
    let cfg = PubSubConfig { replay_steps: 16, ..PubSubConfig::default() };
    let mut w = io.open_publisher("s4", 0, 1, &cfg, hints()).expect("open publisher");
    let mut r =
        io.open_reader_group("s4", "snap", Some(Qos::LatestOnly), hints()).expect("open group");
    for step in 0..10 {
        publish_step(&mut w, step);
    }
    // The group wakes late: it must land on step 9, never 0..9.
    let StepStatus::Step(step) = r.try_begin_step().expect("begin_step") else {
        panic!("a step must be available")
    };
    assert_eq!(step, 9, "at-most-once skips to the newest sealed step");
    r.end_step();
    w.close();
    assert!(matches!(r.try_begin_step().expect("eos"), StepStatus::EndOfStream));
    let (delivered, _, dropped, _) = r.counters().snapshot();
    assert_eq!(delivered, 1);
    assert_eq!(dropped, 9, "the skipped steps are visible in dropped_by_qos");
}

#[test]
fn lossless_cursor_backpressures_publisher_without_spill() {
    let io = FlexIo::single_node(laptop());
    let cfg = PubSubConfig { replay_steps: 2, spill_dir: None, ..PubSubConfig::default() };
    let short = StreamHints { recv_timeout: Duration::from_millis(50), retries: 0, ..hints() };
    let mut w = io.open_publisher("s5", 0, 1, &cfg, short.clone()).expect("open publisher");
    let mut r = io.open_reader_group("s5", "slow", None, short).expect("open group");

    for step in 0..3 {
        publish_step(&mut w, step);
    }
    // Ring holds steps {0,1,2} with bound 2; evicting step 0 would lose
    // it for the registered lossless group at cursor 0 → the publisher
    // must block and time out, not drop.
    w.begin_step(3);
    w.write("t", VarValue::Scalar(ScalarValue::F64(0.0)));
    let err = w.try_end_step().expect_err("publish must backpressure");
    assert_eq!(err, flexio::link::StreamError::Timeout);
    assert!(
        w.log().counters().backpressure_waits.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the wait is observable"
    );

    // The group commits one step; the stalled publish now fits.
    let StepStatus::Step(0) = r.try_begin_step().expect("step 0") else { panic!("step 0") };
    r.end_step();
    publish_step(&mut w, 4);
    w.close();
    let rest = drain(&mut r);
    assert_eq!(rest, vec![1, 2, 4], "nothing was lost; the timed-out step 3 was never sealed");
}

#[test]
fn late_joiner_replays_history_from_spill() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("late");
    let cfg =
        PubSubConfig { replay_steps: 2, spill_dir: Some(spill.clone()), ..PubSubConfig::default() };
    let mut w = io.open_publisher("s6", 0, 1, &cfg, hints()).expect("open publisher");
    let mut live = io.open_reader_group("s6", "live", None, hints()).expect("live group");
    for step in 0..8 {
        publish_step(&mut w, step);
    }
    assert!(w.log().mem_start() >= 6, "cold steps must leave the ring");

    // Joins after 8 steps: memory only holds the last 2, the rest comes
    // off BP spill segments — transparently, in order.
    let mut late = io.open_reader_group("s6", "late", None, hints()).expect("late group");
    w.close();
    let live_steps = drain(&mut live);
    let late_steps = drain(&mut late);
    assert_eq!(live_steps, (0..8).collect::<Vec<_>>());
    assert_eq!(late_steps, live_steps, "replayed history must equal the live stream");
    let (delivered, replayed, _, _) = late.counters().snapshot();
    assert_eq!(delivered, 8);
    assert!(replayed >= 6, "at least the evicted steps came from spill, got {replayed}");
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn restarted_group_resumes_from_durable_cursor() {
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("resume");
    let cfg =
        PubSubConfig { replay_steps: 4, spill_dir: Some(spill.clone()), ..PubSubConfig::default() };
    let mut w = io.open_publisher("s7", 0, 1, &cfg, hints()).expect("open publisher");
    for step in 0..6 {
        publish_step(&mut w, step);
    }
    w.close();

    // First incarnation consumes 3 steps, then "crashes" (drops without
    // close — the durable cursor is all that survives).
    {
        let mut r =
            ReaderGroup::tail(&spill, "s7", "g0", Qos::Lossless, &hints()).expect("tail attach");
        for want in 0..3 {
            let StepStatus::Step(step) = r.try_begin_step().expect("step") else {
                panic!("step expected")
            };
            assert_eq!(step, want);
            r.end_step();
        }
    }

    // The restart resumes exactly where the commit left off.
    let mut r =
        ReaderGroup::tail(&spill, "s7", "g0", Qos::Lossless, &hints()).expect("tail re-attach");
    assert_eq!(
        r.counters().resumed_from.load(std::sync::atomic::Ordering::Relaxed),
        3,
        "resume point is the durable cursor"
    );
    let steps = drain(&mut r);
    assert_eq!(steps, vec![3, 4, 5], "no step lost, none repeated");
    std::fs::remove_dir_all(&spill).ok();
}

/// A lossless group's delivery loop stopped after `K` steps has committed
/// every step it delivered: the next incarnation resumes at step `K`.
#[test]
fn stopped_group_task_resumes_where_it_stopped() {
    const K: u64 = 3;
    let io = FlexIo::single_node(laptop());
    let spill = temp_spill("stop");
    let cfg =
        PubSubConfig { replay_steps: 4, spill_dir: Some(spill.clone()), ..PubSubConfig::default() };
    let mut w = io.open_publisher("s10", 0, 1, &cfg, hints()).expect("open publisher");
    for step in 0..6 {
        publish_step(&mut w, step);
    }
    w.close();

    // Every step is ready, so only `stop` ends the loop before EOS: it
    // yields between rounds, and the watcher behind it sees each count.
    let r = ReaderGroup::tail(&spill, "s10", "g0", Qos::Lossless, &hints()).expect("tail attach");
    let (handle, task) = r.into_task();
    let watch = handle.clone();
    let mut reactor = flexio_reactor::Reactor::new();
    reactor.spawn(task);
    reactor.spawn(async move {
        while watch.rounds() < K {
            flexio_reactor::yield_now().await;
        }
        watch.stop();
    });
    reactor.run();
    let delivered = handle.take_output().expect("the loop ended").expect("no delivery error");
    assert_eq!(delivered.iter().map(|(step, _)| *step).collect::<Vec<_>>(), vec![0, 1, 2]);

    let mut r =
        ReaderGroup::tail(&spill, "s10", "g0", Qos::Lossless, &hints()).expect("tail re-attach");
    assert_eq!(
        r.counters().resumed_from.load(std::sync::atomic::Ordering::Relaxed),
        K,
        "the stopped loop committed every step it delivered"
    );
    assert_eq!(drain(&mut r), vec![3, 4, 5], "no step lost, none repeated");
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn abandoned_writer_drains_retained_steps_then_eos() {
    let io = FlexIo::single_node(laptop());
    let mut w =
        io.open_publisher("s8", 0, 1, &PubSubConfig::default(), hints()).expect("open publisher");
    let mut r = io.open_reader_group("s8", "g0", None, hints()).expect("open group");
    for step in 0..4 {
        publish_step(&mut w, step);
    }
    w.abandon(); // simulated crash: no close, no EOS mark

    let steps = drain(&mut r);
    assert_eq!(steps, vec![0, 1, 2, 3], "every retained step drains before EOS");
    assert!(
        r.counters().eos_synthesized.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "the EOS was synthesized, not clean"
    );
}

#[test]
fn group_counters_discoverable_through_directory() {
    let io = FlexIo::single_node(laptop());
    let mut w =
        io.open_publisher("s9", 0, 1, &PubSubConfig::default(), hints()).expect("open publisher");
    let mut r = io.open_reader_group("s9", "g0", None, hints()).expect("open group");
    for step in 0..3 {
        publish_step(&mut w, step);
    }
    w.close();

    // A manager/monitor observing fan-out health discovers the group's
    // live counters through the directory while the group runs; closing
    // the group unregisters the entry.
    let c = io
        .lookup_group_counters("s9", "g0", Duration::from_millis(200))
        .expect("counters registered");
    drain(&mut r);
    assert_eq!(c.delivered.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert!(
        io.lookup_group_counters("s9", "g0", Duration::from_millis(50)).is_err(),
        "close must unregister the group"
    );
}

#[test]
fn one_directory_entry_serves_every_group() {
    let io = FlexIo::single_node(laptop());
    let mut w =
        io.open_publisher("s10", 0, 1, &PubSubConfig::default(), hints()).expect("open publisher");

    // Before its attach a group is not discoverable; an observer that
    // asks with time to spare gets the counters once the group attaches.
    // (The pause only makes it likely the observer is already waiting;
    // the assertions hold in either order.)
    assert!(io.lookup_group_counters("s10", "g2", Duration::from_millis(20)).is_err());
    let observer = {
        let io = io.clone();
        std::thread::spawn(move || io.lookup_group_counters("s10", "g2", Duration::from_secs(5)))
    };
    std::thread::sleep(Duration::from_millis(30));
    let mut groups: Vec<ReaderGroup> = ["g0", "g1", "g2"]
        .iter()
        .map(|g| io.open_reader_group("s10", g, None, hints()).expect("open group"))
        .collect();
    let counters = observer.join().unwrap().expect("counters found once g2 attached");

    // The stream registered once; its groups registered nothing.
    assert_eq!(io.directory().registration_count(), 1);

    for step in 0..2 {
        publish_step(&mut w, step);
    }
    w.close();
    for r in &mut groups {
        assert_eq!(drain(r), vec![0, 1]);
    }
    assert_eq!(counters.delivered.load(std::sync::atomic::Ordering::Relaxed), 2);
    assert_eq!(io.directory().registration_count(), 1);
}
