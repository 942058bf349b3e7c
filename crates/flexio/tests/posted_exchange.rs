//! The step-2 exchange is a post, not a rendezvous: the reader coordinator
//! sends `reader_info` the moment its content is fixed (on entry to
//! `begin_step` on the first step and under `NO_CACHING`, from `end_step`
//! under `CACHING_LOCAL`), so a `CACHING_LOCAL` writer runs exactly one
//! step ahead of the reader — never two — and EOS and plug-in deployment
//! still work with a post in flight. No test here sleeps: orderings are
//! observed on channels (with a timeout) or on one shared reactor.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use adios::{ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use flexio::{CachingLevel, FlexIo, PluginPlacement, PluginSpec, StreamHints, Transport};
use machine::laptop;

/// How long an ordering that must happen may take before the test fails.
const PATIENCE: Duration = Duration::from_secs(10);

fn local_hints(transport: Transport) -> StreamHints {
    StreamHints { caching: CachingLevel::CachingLocal, transport, ..StreamHints::default() }
}

fn read_v(r: &mut flexio::StreamReader) -> Vec<f64> {
    let VarValue::Block(b) = r.read("v", &Selection::ProcessGroup(0)).expect("v") else {
        panic!("block expected")
    };
    b.data.as_f64().to_vec()
}

/// A channel both `Fn + Sync` rank bodies of [`couple`] can capture: the
/// receiving end behind a lock (one rank a side here, so it is never
/// contended).
fn shared_channel<T>() -> (mpsc::Sender<T>, Mutex<mpsc::Receiver<T>>) {
    let (tx, rx) = mpsc::channel();
    (tx, Mutex::new(rx))
}

// ------------------------------------------------- (i) lookahead of one

/// Blocking API, one thread a side: after the reader's `end_step(s)` the
/// writer's `end_step(s+1)` completes although the reader never enters
/// `begin_step(s+1)` until it has seen that happen.
fn writer_finishes_next_step_while_reader_is_between_steps(transport: Transport) {
    const STEPS: u64 = 5;
    let (done, seen) = shared_channel::<u64>();
    couple(
        1,
        1,
        local_hints(transport),
        move |mut w, _| {
            for step in 0..STEPS {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![step as f64; 4], 4));
                w.end_step();
                done.send(step).unwrap();
            }
            w.close();
        },
        move |mut r, _| {
            let done = seen.lock().unwrap();
            r.subscribe("v", Selection::ProcessGroup(0));
            for step in 0..STEPS {
                assert_eq!(r.begin_step(), StepStatus::Step(step));
                assert_eq!(read_v(&mut r), vec![step as f64; 4]);
                r.end_step();
                if step + 1 < STEPS {
                    // Not in `begin_step(step + 1)` yet — and the writer
                    // gets through `end_step(step + 1)` regardless.
                    while done.recv_timeout(PATIENCE).expect("writer ran one step ahead")
                        != step + 1
                    {}
                }
            }
            assert_eq!(r.begin_step(), StepStatus::EndOfStream);
        },
    );
}

#[test]
fn shm_writer_finishes_next_step_while_reader_is_between_steps() {
    writer_finishes_next_step_while_reader_is_between_steps(Transport::Shm);
}

#[test]
fn tcp_writer_finishes_next_step_while_reader_is_between_steps() {
    writer_finishes_next_step_while_reader_is_between_steps(Transport::Tcp);
}

/// Both programs on one reactor thread, so every interleaving point is a
/// task switch the test can see: the writer gets one step ahead of the
/// reader and not two.
fn lookahead_is_exactly_one_step(transport: Transport) {
    const STEPS: u64 = 6;
    let io = FlexIo::single_node(laptop());
    let hints = local_hints(transport);
    let (wcore, rcore) = (laptop().node.location_of(0), laptop().node.location_of(1));
    let written = Rc::new(Cell::new(0u64)); // writer `end_step`s completed
    let ended = Rc::new(Cell::new(0u64)); // reader `end_step`s returned
    let mut reactor = flexio_reactor::Reactor::new();

    let (io_w, hints_w) = (io.clone(), hints.clone());
    let (written_w, ended_w) = (Rc::clone(&written), Rc::clone(&ended));
    reactor.spawn(async move {
        let mut w = io_w.open_writer_rt("ahead", 0, 1, wcore, vec![wcore], hints_w).await.unwrap();
        for step in 0..STEPS {
            w.begin_step(step);
            w.write("v", block_1d(0, vec![step as f64; 4], 4));
            w.end_step_rt().await.expect("end_step");
            // `end_step(s+2)` needs the post made by the reader's
            // `end_step(s+1)`: it cannot have completed before that returned.
            assert!(
                ended_w.get() >= step,
                "writer finished step {step} after only {} reader end_steps",
                ended_w.get()
            );
            written_w.set(step + 1);
        }
        w.close();
    });

    let ended_r = Rc::clone(&ended);
    reactor.spawn(async move {
        let mut r = io.open_reader_rt("ahead", 0, 1, rcore, vec![rcore], hints).await.unwrap();
        r.subscribe("v", Selection::ProcessGroup(0));
        for step in 0..STEPS {
            assert_eq!(r.begin_step_rt().await, Ok(StepStatus::Step(step)));
            assert_eq!(read_v(&mut r), vec![step as f64; 4]);
            assert!(written.get() <= step + 1, "the writer is never two steps ahead");
            r.end_step();
            ended_r.set(step + 1);
            // Stay between the steps until the writer has finished the
            // next one: it does not need this task inside `begin_step`.
            let deadline = Instant::now() + PATIENCE;
            while step + 1 < STEPS && written.get() < step + 2 {
                assert!(Instant::now() < deadline, "writer never finished step {}", step + 1);
                flexio_reactor::yield_now().await;
            }
        }
        assert_eq!(r.begin_step_rt().await, Ok(StepStatus::EndOfStream));
    });
    reactor.run();
    assert_eq!(ended.get(), STEPS);
}

#[test]
fn shm_lookahead_is_exactly_one_step() {
    lookahead_is_exactly_one_step(Transport::Shm);
}

#[test]
fn tcp_lookahead_is_exactly_one_step() {
    lookahead_is_exactly_one_step(Transport::Tcp);
}

// ------------------------------------ (ii) EOS with a post left unread

/// The writer closes only after the reader's last `end_step` — whose post
/// nobody will ever read. With `writer_leaves_early` the writer is dropped
/// (its end of the control channel with it) *before* that `end_step`, so
/// the post goes to a peer that is gone.
fn eos_with_an_unread_post(transport: Transport, writer_leaves_early: bool) {
    const STEPS: u64 = 3;
    let (ended_tx, ended) = shared_channel::<()>(); // reader's last end_step returned
    let (gone_tx, gone) = shared_channel::<()>(); // writer closed and dropped
    let (links, _) = couple(
        1,
        1,
        local_hints(transport),
        move |mut w, _| {
            for step in 0..STEPS {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![step as f64; 4], 4));
                w.end_step();
            }
            let link = w.link().clone();
            if !writer_leaves_early {
                ended.lock().unwrap().recv_timeout(PATIENCE).expect("reader's last end_step");
            }
            w.close();
            drop(w);
            gone_tx.send(()).ok();
            link
        },
        move |mut r, _| {
            r.subscribe("v", Selection::ProcessGroup(0));
            for step in 0..STEPS {
                assert_eq!(r.begin_step(), StepStatus::Step(step));
                assert_eq!(read_v(&mut r), vec![step as f64; 4]);
                if writer_leaves_early && step + 1 == STEPS {
                    gone.lock().unwrap().recv_timeout(PATIENCE).expect("writer gone");
                }
                r.end_step();
            }
            ended_tx.send(()).ok();
            assert_eq!(r.begin_step(), StepStatus::EndOfStream);
            assert_eq!(r.begin_step(), StepStatus::EndOfStream, "and stays ended");
        },
    );
    let counters = &links[0].counters;
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 0);
    // One `writer_info` and one `reader_info` per step, and the trailing
    // post.
    assert_eq!(counters.exchange_msgs.load(Ordering::Relaxed), STEPS * 2 + 1);
}

#[test]
fn shm_eos_after_an_unread_post() {
    eos_with_an_unread_post(Transport::Shm, false);
}

#[test]
fn tcp_eos_after_an_unread_post() {
    eos_with_an_unread_post(Transport::Tcp, false);
}

#[test]
fn tcp_post_to_a_writer_already_gone_is_swallowed() {
    eos_with_an_unread_post(Transport::Tcp, true);
}

#[test]
fn shm_post_to_a_writer_already_gone_is_swallowed() {
    eos_with_an_unread_post(Transport::Shm, true);
}

// --------------------- (iii) plug-in deployed while the writer is ahead

#[test]
fn plugin_installed_between_steps_while_writer_is_ahead_conditions_exactly_once() {
    const STEPS: u64 = 7;
    const INSTALL_AFTER: u64 = 1; // between end_step(1) and begin_step(2)
    let spec = PluginSpec {
        var: "v".into(),
        source: codelet::plugins::unit_conversion("v", 2.0).into(),
        placement: PluginPlacement::WriterSide,
    };
    let (done, seen) = shared_channel::<u64>();
    let (_, results) = couple(
        1,
        1,
        local_hints(Transport::Shm),
        move |mut w, _| {
            for step in 0..STEPS {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![1.0, 2.0, 3.0], 3));
                w.end_step();
                done.send(step).unwrap();
            }
            w.close();
        },
        move |mut r, _| {
            let done = seen.lock().unwrap();
            r.subscribe("v", Selection::ProcessGroup(0));
            let mut seen = Vec::new();
            for step in 0..STEPS {
                assert_eq!(r.begin_step(), StepStatus::Step(step));
                seen.push((read_v(&mut r), r.arrived_conditioned(0, "v")));
                r.end_step();
                if step == INSTALL_AFTER {
                    // The writer is a whole step ahead: step 2 is already
                    // on the wire, unconditioned, when the plug-in goes in.
                    while done.recv_timeout(PATIENCE).expect("writer ahead") != step + 1 {}
                    r.install_plugin(spec.clone());
                }
            }
            assert_eq!(r.begin_step(), StepStatus::EndOfStream);
            seen
        },
    );
    for (step, (values, on_wire)) in results[0].iter().enumerate() {
        let step = step as u64;
        if step <= INSTALL_AFTER {
            assert_eq!((values, *on_wire), (&vec![1.0, 2.0, 3.0], false), "step {step}: raw");
            continue;
        }
        // Conditioned exactly once from the first step after the install:
        // by the reader's fallback copy while the chunk still arrives
        // without the `dc_applied` marker, by the writer afterwards.
        assert_eq!(values, &vec![2.0, 4.0, 6.0], "step {step} conditioned once");
        if step == INSTALL_AFTER + 1 {
            assert!(!on_wire, "step {step} left the writer before the install");
        }
        // The update leaves in `begin_step(s+1)`, ahead of the post that
        // admits the writer to step s+3, and the writer drains updates on
        // entry to a step: on the wire from s+3 at the latest.
        if step >= INSTALL_AFTER + 3 {
            assert!(on_wire, "step {step}: the writer-side plug-in runs before the transport");
        }
    }
}
