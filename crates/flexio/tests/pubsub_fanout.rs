//! Fan-out equivalence: one writer, four reader groups, three delivery
//! backends — blocking threads, a single-threaded [`Reactor`], and a
//! [`ReactorFleet`] — must hand every group the byte-identical step
//! sequence (probed by [`flexio::step_digest`]), both on a clean run and
//! under a seeded fault plan that crashes the writer mid-stream.
//!
//! [`Reactor`]: flexio_reactor::Reactor
//! [`ReactorFleet`]: flexio_reactor::ReactorFleet

use std::sync::Arc;
use std::time::Duration;

use adios::{ArrayData, LocalBlock, ScalarValue, StepStatus, VarValue, WriteEngine};
use evpath::{FaultPlan, FaultSpec};
use flexio::{FlexIo, PubSubConfig, ReaderGroup, StreamHints};
use flexio_reactor::ReactorFleet;
use machine::laptop;

const GROUPS: usize = 4;
const STEPS: u64 = 9;
const CRASH_AFTER: u64 = 6;
const ELEMS: u64 = 8;

fn seed() -> u64 {
    std::env::var("FLEXIO_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBACCE4D)
}

fn crash_plan(seed: u64) -> Arc<FaultPlan> {
    let mut plan = FaultPlan::new(seed);
    plan.set(
        "pubsub:pub",
        FaultSpec { crash_sender_after: Some(CRASH_AFTER), ..Default::default() },
    );
    Arc::new(plan)
}

fn hints(plan: Option<&Arc<FaultPlan>>) -> StreamHints {
    StreamHints {
        recv_timeout: Duration::from_millis(400),
        retries: 1,
        faults: plan.map(Arc::clone),
        ..StreamHints::default()
    }
}

fn group_names() -> Vec<String> {
    (0..GROUPS).map(|g| format!("g{g}")).collect()
}

/// Publish `STEPS` steps (a block plus a scalar each; the fault plan may
/// cut this short) and close.
fn publish(mut w: flexio::StepPublisher) {
    for step in 0..STEPS {
        w.begin_step(step);
        let data: Vec<f64> = (0..ELEMS).map(|e| (step * 100 + e) as f64).collect();
        w.write(
            "u",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![ELEMS],
                    offset: vec![0],
                    count: vec![ELEMS],
                    data: ArrayData::F64(data),
                }
                .validated(),
            ),
        );
        w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64 * 0.5)));
        w.end_step();
    }
    w.close();
}

/// Drain one group synchronously into its `(step, digest)` trace.
fn drain_sync(mut r: ReaderGroup) -> Vec<(u64, u64)> {
    let mut trace = Vec::new();
    loop {
        match r.try_begin_step().expect("begin_step") {
            StepStatus::Step(step) => {
                let digest = r.current_step_digest().expect("open step has a digest");
                trace.push((step, digest));
                adios::ReadEngine::end_step(&mut r);
            }
            StepStatus::EndOfStream => break,
        }
    }
    adios::ReadEngine::close(&mut r);
    trace
}

/// Blocking backend: writer thread + one consumer thread per group.
fn run_blocking(stream: &str, plan: Option<&Arc<FaultPlan>>) -> Vec<Vec<(u64, u64)>> {
    let io = FlexIo::single_node(laptop());
    publishers_first(&io, stream, plan, |groups| {
        let handles: Vec<_> =
            groups.into_iter().map(|r| std::thread::spawn(move || drain_sync(r))).collect();
        handles.into_iter().map(|h| h.join().expect("group thread")).collect()
    })
}

/// Reactor backend: all four groups are futures multiplexed on one
/// single-threaded reactor; the writer runs on a plain thread.
fn run_reactor(stream: &str, plan: Option<&Arc<FaultPlan>>) -> Vec<Vec<(u64, u64)>> {
    let io = FlexIo::single_node(laptop());
    publishers_first(&io, stream, plan, |groups| {
        let mut reactor = flexio_reactor::Reactor::new();
        let handles: Vec<_> = groups
            .into_iter()
            .map(|r| {
                let (handle, task) = r.into_task();
                reactor.spawn(task);
                handle
            })
            .collect();
        reactor.run();
        handles
            .into_iter()
            .map(|h| {
                assert!(h.is_done(), "reactor drained the task");
                let delivered = h.take_output().expect("the loop left its output");
                assert_eq!(delivered.as_ref().err(), None, "no delivery error");
                delivered.unwrap()
            })
            .collect()
    })
}

/// Fleet backend: each group is a task on a four-worker [`ReactorFleet`].
fn run_fleet(stream: &str, plan: Option<&Arc<FaultPlan>>) -> Vec<Vec<(u64, u64)>> {
    let io = FlexIo::single_node(laptop());
    publishers_first(&io, stream, plan, |groups| {
        let fleet = ReactorFleet::new(4);
        let handles: Vec<_> = groups
            .into_iter()
            .map(|r| {
                let (handle, task) = r.into_task();
                fleet.spawn(task);
                handle
            })
            .collect();
        fleet.join();
        handles
            .into_iter()
            .map(|h| {
                assert!(h.is_done(), "fleet drained the task");
                let delivered = h.take_output().expect("the loop left its output");
                assert_eq!(delivered.as_ref().err(), None, "no delivery error");
                delivered.unwrap()
            })
            .collect()
    })
}

/// Shared harness: attach every group before the first step is
/// published, run the writer to completion (or its scheduled crash), and
/// hand the attached groups to the backend-specific drain.
fn publishers_first<F>(
    io: &FlexIo,
    stream: &str,
    plan: Option<&Arc<FaultPlan>>,
    drain: F,
) -> Vec<Vec<(u64, u64)>>
where
    F: FnOnce(Vec<ReaderGroup>) -> Vec<Vec<(u64, u64)>>,
{
    // The publisher must exist before groups can look the stream up;
    // groups attach before the first step so nothing is evicted unseen
    // (the default 64-step ring retains all 9 steps anyway).
    let cfg = PubSubConfig { groups: GROUPS, ..PubSubConfig::default() };
    let setup = hints(plan);
    let w = io.open_publisher(stream, 0, 1, &cfg, setup.clone()).expect("open publisher");
    let groups: Vec<ReaderGroup> = group_names()
        .iter()
        .map(|g| io.open_reader_group(stream, g, None, setup.clone()).expect("open group"))
        .collect();

    let writer = std::thread::spawn(move || publish(w));
    let traces = drain(groups);
    writer.join().expect("writer thread");
    traces
}

#[test]
fn four_groups_share_one_byte_identical_stream_on_every_backend() {
    let blocking = run_blocking("fan-clean-b", None);
    let reactor = run_reactor("fan-clean-r", None);
    let fleet = run_fleet("fan-clean-f", None);

    let reference = &blocking[0];
    assert_eq!(reference.len() as u64, STEPS, "every published step delivered");
    assert_eq!(
        reference.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        (0..STEPS).collect::<Vec<_>>(),
        "in publication order"
    );
    for (backend, traces) in [("blocking", &blocking), ("reactor", &reactor), ("fleet", &fleet)] {
        assert_eq!(traces.len(), GROUPS);
        for (g, trace) in traces.iter().enumerate() {
            assert_eq!(trace, reference, "{backend} group {g} diverged from the reference");
        }
    }
}

#[test]
fn crashed_writer_drains_identically_across_backends() {
    let seed = seed();
    let backends = [
        ("blocking", run_blocking("fan-crash-b", Some(&crash_plan(seed)))),
        ("reactor", run_reactor("fan-crash-r", Some(&crash_plan(seed)))),
        ("fleet", run_fleet("fan-crash-f", Some(&crash_plan(seed)))),
    ];
    let reference = &backends[0].1[0];
    assert_eq!(
        reference.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        (0..CRASH_AFTER).collect::<Vec<_>>(),
        "exactly the steps sealed before the crash are delivered"
    );
    for (backend, traces) in &backends {
        for (g, trace) in traces.iter().enumerate() {
            assert_eq!(trace, reference, "{backend} group {g} diverged after writer crash");
        }
    }
}

#[test]
fn crash_fault_is_accounted_once_per_run() {
    let plan = crash_plan(seed());
    let _ = run_blocking("fan-acct", Some(&plan));
    assert_eq!(
        plan.counters().snapshot().crashed_sends,
        1,
        "the scheduled writer crash fires exactly once"
    );
}
