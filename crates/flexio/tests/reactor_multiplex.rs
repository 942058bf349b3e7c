//! The reactor's reason to exist: ONE thread, ONE event loop, driving many
//! concurrent writer/reader couplings end to end. Every stream here runs
//! the full protocol — open, 4-step handshake, data transfer, sync acks,
//! EOS — as poll-driven state machines multiplexed on the test thread; no
//! helper thread is ever spawned. The blocking API would need 2×N threads
//! for the same work.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::block_1d;
use flexio::{CachingLevel, FlexIo, StreamHints, WriteMode};
use machine::laptop;

const COUPLINGS: usize = 64;
const STEPS: u64 = 3;
const ELEMS: u64 = 4;

#[test]
fn one_reactor_thread_drives_64_couplings_to_completion() {
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints {
        // Sync mode bounds in-flight data per stream, so 64 streams'
        // traffic cannot overrun the bounded shm queues while their
        // consumers wait for their turn on the shared loop.
        write_mode: WriteMode::Sync,
        caching: CachingLevel::CachingAll,
        ..StreamHints::default()
    };

    let mut reactor = flexio_reactor::Reactor::new();
    let writers_done = Rc::new(Cell::new(0usize));
    let readers_done = Rc::new(Cell::new(0usize));
    let steps_read = Rc::new(Cell::new(0u64));

    for i in 0..COUPLINGS {
        let wcore = laptop().node.location_of(0);
        // Half the couplings run same-core (in-proc transport), half
        // cross-core (shared-memory transport): one loop, both fabrics.
        let rcore = if i % 2 == 0 { wcore } else { laptop().node.location_of(1) };
        let name = format!("mux{i}");

        let io_w = io.clone();
        let hints_w = hints.clone();
        let name_w = name.clone();
        let done = Rc::clone(&writers_done);
        reactor.spawn(async move {
            let mut w = io_w
                .open_writer_rt(&name_w, 0, 1, wcore, vec![wcore], hints_w)
                .await
                .expect("open writer");
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..ELEMS).map(|e| (i as u64 * 1000 + step * 10 + e) as f64).collect();
                w.write("u", block_1d(0, data, ELEMS));
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
            done.set(done.get() + 1);
        });

        let io_r = io.clone();
        let hints_r = hints.clone();
        let done = Rc::clone(&readers_done);
        let steps = Rc::clone(&steps_read);
        reactor.spawn(async move {
            let mut r = io_r
                .open_reader_rt(&name, 0, 1, rcore, vec![rcore], hints_r)
                .await
                .expect("open reader");
            let whole = Selection::GlobalBox(BoxSel::whole(&[ELEMS]));
            r.subscribe("u", whole.clone());
            loop {
                match r.begin_step_rt().await.expect("begin_step") {
                    StepStatus::Step(step) => {
                        let v = r.read("u", &whole).expect("subscribed var present");
                        let VarValue::Block(b) = v else { panic!("block expected") };
                        for (e, &x) in b.data.as_f64().iter().enumerate() {
                            assert_eq!(
                                x,
                                (i as u64 * 1000 + step * 10 + e as u64) as f64,
                                "stream {i} step {step} elem {e}"
                            );
                        }
                        steps.set(steps.get() + 1);
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            r.close();
            done.set(done.get() + 1);
        });
    }

    assert_eq!(reactor.pending(), COUPLINGS * 2, "all tasks registered before run");
    reactor.run();

    assert_eq!(writers_done.get(), COUPLINGS, "every writer ran to completion");
    assert_eq!(readers_done.get(), COUPLINGS, "every reader ran to completion");
    assert_eq!(steps_read.get(), COUPLINGS as u64 * STEPS, "no step lost or duplicated");
    assert_eq!(reactor.pending(), 0, "the loop drained every task");
}

#[test]
fn blocking_hint_calls_made_from_a_reactor_task_still_complete_a_coupled_step() {
    // The blocking API runs the engine future in place, its waits served
    // on the calling thread — including when that thread happens to be
    // inside a reactor task. One reactor per side, each on its own
    // thread, so the two blocking calls can meet.
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };
    let core = laptop().node.location_of(0);

    let (io_r, hints_r) = (io.clone(), hints.clone());
    let reader = std::thread::spawn(move || {
        let mut reactor = flexio_reactor::Reactor::new();
        reactor.spawn(async move {
            let mut r = io_r.open_reader("nested", 0, 1, core, vec![core], hints_r).unwrap();
            let whole = Selection::GlobalBox(BoxSel::whole(&[ELEMS]));
            r.subscribe("u", whole.clone());
            assert_eq!(r.try_begin_step(), Ok(StepStatus::Step(0)));
            assert_eq!(r.read("u", &whole), Some(block_1d(0, vec![1.0, 2.0, 3.0, 4.0], ELEMS)));
            r.end_step();
            assert_eq!(r.try_begin_step(), Ok(StepStatus::EndOfStream));
            assert!(flexio_reactor::in_reactor(), "the task's reactor is untouched");
        });
        reactor.run();
    });

    let mut reactor = flexio_reactor::Reactor::new();
    reactor.spawn(async move {
        let mut w = io.open_writer("nested", 0, 1, core, vec![core], hints).unwrap();
        w.begin_step(0);
        w.write("u", block_1d(0, vec![1.0, 2.0, 3.0, 4.0], ELEMS));
        w.try_end_step().expect("sync step acked by the reader");
        w.close();
    });
    reactor.run();
    reader.join().expect("reader side");
}
