//! Endpoint-crash integration tests: a writer that dies mid-stream must
//! degrade into a synthesized end-of-stream on the reader side (after the
//! buffered steps are drained), and a reader rank that dies mid-stream
//! must be evicted so the surviving readers keep receiving correct data.
//!
//! The `_on_one_reactor` twins run every rank as a `*_rt` task on one
//! [`Reactor`], so the retry deadlines that end in the synthesized EOS
//! and the eviction expire on its timer wheel instead of in a parked
//! thread.

mod common;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple_with, reader_core, reader_roster, writer_core, writer_roster};
use evpath::{FaultPlan, FaultSpec};
use flexio::link::{LinkState, StreamError};
use flexio::{CachingLevel, FlexIo, StreamHints, StreamReader, StreamWriter, WriteMode};
use flexio_reactor::Reactor;
use machine::laptop;

/// [`couple_with`] with every rank a task on one [`Reactor`] driven by
/// the calling thread.
fn couple_on_one_reactor<W, R>(
    nwriters: usize,
    nreaders: usize,
    writer_hints: StreamHints,
    reader_hints: StreamHints,
    writer_body: impl Fn(StreamWriter, usize) -> W + 'static,
    reader_body: impl Fn(StreamReader, usize) -> R + 'static,
) -> (Vec<W::Output>, Vec<R::Output>)
where
    W: Future + 'static,
    R: Future + 'static,
{
    let io = FlexIo::new(laptop(), 4);
    let mut reactor = Reactor::new();
    let writers = Rc::new(RefCell::new(Vec::new()));
    let readers = Rc::new(RefCell::new(Vec::new()));
    let writer_body = Rc::new(writer_body);
    let reader_body = Rc::new(reader_body);
    for rank in 0..nwriters {
        let (io, hints, body, out) =
            (io.clone(), writer_hints.clone(), Rc::clone(&writer_body), Rc::clone(&writers));
        reactor.spawn(async move {
            let w = io
                .open_writer_rt(
                    "stream",
                    rank,
                    nwriters,
                    writer_core(rank),
                    writer_roster(nwriters),
                    hints,
                )
                .await
                .expect("open writer");
            let result = body(w, rank).await;
            out.borrow_mut().push((rank, result));
        });
    }
    for rank in 0..nreaders {
        let (io, hints, body, out) =
            (io.clone(), reader_hints.clone(), Rc::clone(&reader_body), Rc::clone(&readers));
        reactor.spawn(async move {
            let r = io
                .open_reader_rt(
                    "stream",
                    rank,
                    nreaders,
                    reader_core(rank),
                    reader_roster(nreaders),
                    hints,
                )
                .await
                .expect("open reader");
            let result = body(r, rank).await;
            out.borrow_mut().push((rank, result));
        });
    }
    reactor.run();
    fn by_rank<T>(out: Rc<RefCell<Vec<(usize, T)>>>) -> Vec<T> {
        let mut out = out.take();
        out.sort_by_key(|(rank, _)| *rank);
        out.into_iter().map(|(_, result)| result).collect()
    }
    (by_rank(writers), by_rank(readers))
}

/// The writer keeps default hints; the reader synthesizes EOS after
/// 50 + 100 + 200 ms of silence.
fn silence_hints() -> (StreamHints, StreamHints) {
    let reader = StreamHints {
        recv_timeout: Duration::from_millis(50),
        retries: 2,
        eos_on_silence: true,
        ..StreamHints::default()
    };
    (StreamHints::default(), reader)
}

fn assert_synthesized_eos(steps: &[u64], link: &LinkState) {
    assert_eq!(steps, [0, 1], "both completed steps must be drained first");
    let eos_synthesized = link.counters.resilience_snapshot().4;
    assert_eq!(eos_synthesized, 1, "silence must have been converted to EOS once");
}

#[test]
fn abandoned_writer_becomes_synthesized_eos() {
    // The writer vanishes without the end-of-stream courtesy message. An
    // `eos_on_silence` reader drains the two steps that made it out, then
    // reports a clean EndOfStream instead of erroring.
    let (writer_hints, reader_hints) = silence_hints();
    let (_, results) = couple_with(
        1,
        1,
        writer_hints,
        reader_hints,
        |mut w, _| {
            for step in 0..2 {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![step as f64; 3], 3));
                w.end_step();
            }
            w.abandon(); // no EOS, no nothing — as if the process died
        },
        |mut r, _| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![3])));
            let mut steps = Vec::new();
            loop {
                match r.begin_step() {
                    StepStatus::Step(s) => {
                        let v = r
                            .read("v", &Selection::GlobalBox(BoxSel::new(vec![0], vec![3])))
                            .unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        assert_eq!(b.data.as_f64(), &[s as f64; 3]);
                        steps.push(s);
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            (steps, r.link().clone())
        },
    );
    let (steps, link) = &results[0];
    assert_synthesized_eos(steps, link);
}

#[test]
fn abandoned_writer_becomes_synthesized_eos_on_one_reactor() {
    let (writer_hints, reader_hints) = silence_hints();
    let (_, results) = couple_on_one_reactor(
        1,
        1,
        writer_hints,
        reader_hints,
        |mut w, _| async move {
            for step in 0..2 {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![step as f64; 3], 3));
                w.end_step_rt().await.expect("end_step");
            }
            w.abandon();
        },
        |mut r, _| async move {
            let whole = Selection::GlobalBox(BoxSel::new(vec![0], vec![3]));
            r.subscribe("v", whole.clone());
            let mut steps = Vec::new();
            while let StepStatus::Step(s) = r.begin_step_rt().await.expect("begin_step") {
                let Some(VarValue::Block(b)) = r.read("v", &whole) else { panic!() };
                assert_eq!(b.data.as_f64(), &[s as f64; 3]);
                steps.push(s);
                r.end_step();
            }
            (steps, r.link().clone())
        },
    );
    let (steps, link) = &results[0];
    assert_synthesized_eos(steps, link);
}

#[test]
fn writer_ctrl_crash_drains_buffered_steps_then_eos() {
    // The writer's control channel "crashes" after exactly 4 sends (a
    // deterministic count, not a timing race): under CACHING_ALL that is
    // STEP₀ + WRITER_INFO₀ + STEP₁ + STEP₂. The writer keeps happily
    // writing 6 steps into the void; the readers must observe exactly
    // steps 0–2 and then a synthesized EOS fanned out to every rank.
    let mut plan = FaultPlan::new(11);
    plan.set("ctrl:w2r", FaultSpec { crash_sender_after: Some(4), ..Default::default() });
    let plan = Arc::new(plan);
    let writer_hints = StreamHints {
        caching: CachingLevel::CachingAll,
        faults: Some(Arc::clone(&plan)),
        ..StreamHints::default()
    };
    let reader_hints = StreamHints {
        caching: CachingLevel::CachingAll,
        recv_timeout: std::time::Duration::from_millis(60),
        retries: 2,
        eos_on_silence: true,
        faults: Some(Arc::clone(&plan)),
        ..StreamHints::default()
    };
    let (_, results) = couple_with(
        1,
        2,
        writer_hints,
        reader_hints,
        |mut w, _| {
            for step in 0..6 {
                w.begin_step(step);
                w.write("v", block_1d(0, (0..8).map(|i| (step * 10 + i) as f64).collect(), 8));
                w.end_step();
            }
            w.close(); // the EOS is swallowed by the crashed channel too
        },
        |mut r, rank| {
            let my_box = BoxSel::new(vec![rank as u64 * 4], vec![4]);
            r.subscribe("v", Selection::GlobalBox(my_box.clone()));
            let mut steps = Vec::new();
            loop {
                // Poll-until-EOS: a non-coordinator rank's wait can expire
                // just before the coordinator's synthesized EOS reaches it,
                // so treat Timeout as "not yet" rather than fatal.
                match r.try_begin_step() {
                    Ok(StepStatus::Step(s)) => {
                        let v = r.read("v", &Selection::GlobalBox(my_box.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        for (i, &x) in b.data.as_f64().iter().enumerate() {
                            assert_eq!(x, (s * 10 + rank as u64 * 4 + i as u64) as f64);
                        }
                        steps.push(s);
                        r.end_step();
                    }
                    Ok(StepStatus::EndOfStream) => break,
                    Err(StreamError::Timeout) => continue,
                    Err(e) => panic!("reader failed: {e}"),
                }
            }
            (steps, r.link().clone())
        },
    );
    for (rank, (steps, _)) in results.iter().enumerate() {
        assert_eq!(steps, &vec![0, 1, 2], "rank {rank} must drain exactly the delivered steps");
    }
    let link = &results[0].1;
    assert_eq!(link.counters.resilience_snapshot().4, 1, "one synthesized EOS");
    let crashed = plan.counters().snapshot().4;
    assert_eq!(crashed, 4, "STEP₃..₅ and the EOS must have hit the dead channel");
}

const EVICTION_STEPS: u64 = 6;

/// Writers give up on a silent reader after 40 + 80 ms; readers are
/// patient.
fn eviction_hints() -> (StreamHints, StreamHints) {
    let writer = StreamHints {
        caching: CachingLevel::CachingLocal,
        write_mode: WriteMode::Sync,
        recv_timeout: Duration::from_millis(40),
        retries: 1,
        ..StreamHints::default()
    };
    let reader = StreamHints {
        caching: CachingLevel::CachingLocal,
        write_mode: WriteMode::Sync,
        recv_timeout: Duration::from_millis(400),
        retries: 3,
        ..StreamHints::default()
    };
    (writer, reader)
}

fn eviction_block(step: u64, rank: usize) -> VarValue {
    let data: Vec<f64> = (0..6).map(|i| (step * 100 + rank as u64 * 6 + i) as f64).collect();
    block_1d(rank as u64 * 6, data, 12)
}

/// Reader `rank` asked for `[2 + 2·rank, 8 + 2·rank)`.
fn check_eviction_read(v: VarValue, step: u64, rank: usize) {
    let VarValue::Block(b) = v else { panic!() };
    for (i, &x) in b.data.as_f64().iter().enumerate() {
        let g = 2 + rank as u64 * 2 + i as u64;
        assert_eq!(x, (step * 100 + g) as f64, "step {step} idx {g}");
    }
}

fn assert_evicted(link: &LinkState, survivor_steps: &[u64]) {
    // The survivor saw the whole stream, the corpse exactly its 2 steps.
    assert_eq!(survivor_steps, [EVICTION_STEPS, 2]);

    let (_, _, _, _, eos_synth, evictions, degraded) = link.counters.resilience_snapshot();
    assert_eq!(evictions, 1, "reader 1 evicted exactly once");
    assert!(
        (1..=2).contains(&degraded),
        "the step that hit the ack timeout completed degraded: {degraded}"
    );
    assert_eq!(eos_synth, 0, "the writer closed cleanly; no EOS synthesis involved");
    assert!(link.is_evicted(1) && !link.is_evicted(0));
}

#[test]
fn crashed_reader_is_evicted_and_survivors_keep_correct_data() {
    // 2 writers × 2 readers with overlapping boxes so every writer feeds
    // every reader. Reader rank 1 dies after two steps; the writers (Sync
    // mode, short ack budget) must evict it, finish the degraded step, and
    // re-plan around the corpse — while reader rank 0 receives bit-correct
    // arrays for all 6 steps.
    let (writer_hints, reader_hints) = eviction_hints();
    let (links, survivor_steps) = couple_with(
        2,
        2,
        writer_hints,
        reader_hints,
        |mut w, rank| {
            for step in 0..EVICTION_STEPS {
                w.begin_step(step);
                w.write("field", eviction_block(step, rank));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, rank| {
            // r0 wants [2, 8), r1 wants [4, 10): both straddle the writer
            // boundary at 6, so both writers send to both readers.
            let my_box = BoxSel::new(vec![2 + rank as u64 * 2], vec![6]);
            r.subscribe("field", Selection::GlobalBox(my_box.clone()));
            let mut steps = 0u64;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("field", &Selection::GlobalBox(my_box.clone())).unwrap();
                        check_eviction_read(v, step, rank);
                        steps += 1;
                        r.end_step();
                        if rank == 1 && steps == 2 {
                            return steps; // rank 1 "crashes": drops mid-stream
                        }
                    }
                    StepStatus::EndOfStream => return steps,
                }
            }
        },
    );

    assert_evicted(&links[0], &survivor_steps);
}

#[test]
fn crashed_reader_is_evicted_on_one_reactor_and_survivors_keep_correct_data() {
    let (writer_hints, reader_hints) = eviction_hints();
    let (links, survivor_steps) = couple_on_one_reactor(
        2,
        2,
        writer_hints,
        reader_hints,
        |mut w, rank| async move {
            for step in 0..EVICTION_STEPS {
                w.begin_step(step);
                w.write("field", eviction_block(step, rank));
                w.end_step_rt().await.expect("end_step");
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, rank| async move {
            let my_box = Selection::GlobalBox(BoxSel::new(vec![2 + rank as u64 * 2], vec![6]));
            r.subscribe("field", my_box.clone());
            let mut steps = 0u64;
            while let StepStatus::Step(step) = r.begin_step_rt().await.expect("begin_step") {
                check_eviction_read(r.read("field", &my_box).unwrap(), step, rank);
                steps += 1;
                r.end_step();
                if rank == 1 && steps == 2 {
                    break; // rank 1 "crashes": its task ends mid-stream
                }
            }
            steps
        },
    );
    assert_evicted(&links[0], &survivor_steps);
}
