//! Edge cases of the stream protocol: unmatched subscriptions, unplanned
//! variables, mixed selection patterns, and misconfiguration detection.

use std::thread;
use std::time::Duration;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, ScalarValue, Selection, StepStatus, VarValue,
    WriteEngine,
};
use flexio::link::StreamError;
use flexio::{CachingLevel, FlexIo, StreamHints};
use machine::{laptop, CoreLocation};

fn block(offset: u64, data: Vec<f64>, global: u64) -> VarValue {
    let count = data.len() as u64;
    VarValue::Block(
        LocalBlock {
            global_shape: vec![global],
            offset: vec![offset],
            count: vec![count],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

fn cores(n: usize, from_top: bool) -> Vec<CoreLocation> {
    let m = laptop();
    (0..n).map(|r| m.node.location_of(if from_top { m.total_cores() - 1 - r } else { r })).collect()
}

#[test]
fn unsubscribed_variables_never_move() {
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, false);
            let mut w = io_w
                .open_writer("edge1", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            w.begin_step(0);
            w.write("wanted", block(0, vec![1.0; 8], 8));
            w.write("ignored", block(0, vec![9.0; 100_000], 100_000));
            w.end_step();
            let link = w.link().clone();
            w.close();
            link
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, true);
            let mut r = io_r
                .open_reader("edge1", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            r.subscribe("wanted", Selection::GlobalBox(BoxSel::whole(&[8])));
            assert_eq!(r.begin_step(), StepStatus::Step(0));
            assert!(r.read("wanted", &Selection::GlobalBox(BoxSel::whole(&[8]))).is_some());
            // The unsubscribed variable is simply absent — and was never
            // transported.
            assert!(r.read("ignored", &Selection::GlobalBox(BoxSel::whole(&[100_000]))).is_none());
            r.end_step();
        })
    });
    let links = wt.join().unwrap();
    rt.join().unwrap();
    // One data message (the wanted var), not two: the 800 kB "ignored"
    // payload never hit the transport.
    assert_eq!(links[0].counters.snapshot().data_msgs, 1);
}

#[test]
fn subscription_to_absent_variable_yields_nothing() {
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, false);
            let mut w = io_w
                .open_writer("edge2", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            for step in 0..2 {
                w.begin_step(step);
                w.write("present", block(0, vec![step as f64], 1));
                w.end_step();
            }
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, true);
            let mut r = io_r
                .open_reader("edge2", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            r.subscribe("ghost", Selection::GlobalBox(BoxSel::whole(&[4])));
            r.subscribe("present", Selection::Scalar); // wrong kind too
            let mut steps = 0;
            while let StepStatus::Step(_) = r.begin_step() {
                assert!(r.read("ghost", &Selection::GlobalBox(BoxSel::whole(&[4]))).is_none());
                // `present` is an array, so the Scalar subscription
                // matches nothing (the planner is kind-aware).
                assert!(r.read("present", &Selection::Scalar).is_none());
                r.end_step();
                steps += 1;
            }
            steps
        })
    });
    wt.join().unwrap();
    assert_eq!(rt.join().unwrap(), vec![2]);
}

#[test]
fn mixed_selection_patterns_in_one_stream() {
    // One stream serving all three read patterns simultaneously —
    // the full §II.B surface in a single step.
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(2, move |comm| {
            let rank = comm.rank();
            let roster = cores(2, false);
            let mut w = io_w
                .open_writer("edge3", rank, 2, roster[rank], roster.clone(), StreamHints::default())
                .unwrap();
            w.begin_step(0);
            w.write("time", VarValue::Scalar(ScalarValue::F64(0.25)));
            w.write("grid", block(rank as u64 * 4, vec![rank as f64; 4], 8));
            w.write("particles", block(0, vec![(rank * 10) as f64; 6], 6));
            w.end_step();
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, true);
            let mut r = io_r
                .open_reader("edge3", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            r.subscribe("time", Selection::Scalar);
            r.subscribe("grid", Selection::GlobalBox(BoxSel::new(vec![2], vec![4])));
            r.subscribe("particles", Selection::ProcessGroup(1));
            assert_eq!(r.begin_step(), StepStatus::Step(0));
            assert_eq!(
                r.read("time", &Selection::Scalar),
                Some(VarValue::Scalar(ScalarValue::F64(0.25)))
            );
            let VarValue::Block(grid) =
                r.read("grid", &Selection::GlobalBox(BoxSel::new(vec![2], vec![4]))).unwrap()
            else {
                panic!()
            };
            assert_eq!(grid.data.as_f64(), &[0.0, 0.0, 1.0, 1.0]);
            let VarValue::Block(pg) = r.read("particles", &Selection::ProcessGroup(1)).unwrap()
            else {
                panic!()
            };
            assert!(pg.data.as_f64().iter().all(|&x| x == 10.0));
            // Not subscribed to writer 0's particles.
            assert!(r.read("particles", &Selection::ProcessGroup(0)).is_none());
            r.end_step();
        })
    });
    wt.join().unwrap();
    rt.join().unwrap();
}

#[test]
fn caching_misconfiguration_is_detected_not_hung() {
    // Writer runs CACHING_ALL, reader NO_CACHING: after the first step
    // the writer stops exchanging while the reader still expects it. The
    // reader must fail fast with a protocol error, not deadlock.
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, false);
            let hints = StreamHints {
                caching: CachingLevel::CachingAll,
                recv_timeout: Duration::from_millis(400),
                retries: 0,
                ..StreamHints::default()
            };
            let mut w = io_w.open_writer("edge4", 0, 1, roster[0], roster.clone(), hints).unwrap();
            for step in 0..2 {
                w.begin_step(step);
                w.write("v", block(0, vec![1.0], 1));
                if w.try_end_step().is_err() {
                    return false; // acceptable: peer bailed out
                }
            }
            w.close();
            true
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, true);
            let hints = StreamHints {
                caching: CachingLevel::NoCaching,
                recv_timeout: Duration::from_millis(400),
                retries: 0,
                ..StreamHints::default()
            };
            let mut r = io_r.open_reader("edge4", 0, 1, roster[0], roster.clone(), hints).unwrap();
            r.subscribe("v", Selection::GlobalBox(BoxSel::whole(&[1])));
            // First step agrees (both sides always exchange on step 0).
            assert_eq!(r.try_begin_step().unwrap(), StepStatus::Step(0));
            r.end_step();
            // Second step: the mismatch must surface as an error.
            match r.try_begin_step() {
                Err(StreamError::Protocol(msg)) => {
                    assert!(msg.contains("caching configuration mismatch"), "{msg}");
                    true
                }
                other => panic!("expected protocol error, got {other:?}"),
            }
        })
    });
    wt.join().unwrap();
    assert_eq!(rt.join().unwrap(), vec![true]);
}

#[test]
fn empty_step_moves_no_data_but_advances() {
    // A step where the writer writes nothing the reader wants — the
    // stream still advances in lockstep.
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, false);
            let mut w = io_w
                .open_writer("edge5", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            for step in 0..3 {
                w.begin_step(step);
                if step == 1 {
                    // Nothing of interest this step.
                    w.write("other", VarValue::Scalar(ScalarValue::U64(0)));
                } else {
                    w.write("v", block(0, vec![step as f64; 4], 4));
                }
                w.end_step();
            }
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let roster = cores(1, true);
            let hints = StreamHints {
                caching: CachingLevel::NoCaching, // re-plan every step
                ..StreamHints::default()
            };
            let mut r = io_r.open_reader("edge5", 0, 1, roster[0], roster.clone(), hints).unwrap();
            r.subscribe("v", Selection::GlobalBox(BoxSel::whole(&[4])));
            let mut seen = Vec::new();
            while let StepStatus::Step(s) = r.begin_step() {
                seen.push((s, r.read("v", &Selection::GlobalBox(BoxSel::whole(&[4]))).is_some()));
                r.end_step();
            }
            seen
        })
    });
    wt.join().unwrap();
    let seen = rt.join().unwrap().pop().unwrap();
    assert_eq!(seen, vec![(0, true), (1, false), (2, true)]);
}
