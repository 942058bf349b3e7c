//! Directory-server integration coverage: the discovery path under late
//! registration, name collisions, unregistration, and fault-injected
//! lookup stalls (the `fault.dir.stall_ms` hint family, end-to-end from
//! the XML config).

mod common;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adios::IoConfig;
use common::{reader_core, reader_roster, writer_core, writer_roster};
use evpath::{FaultPlan, FaultSpec};
use flexio::link::StreamError;
use flexio::{FlexIo, StreamHints};
use machine::laptop;

#[test]
fn reader_open_blocks_until_late_writer_registers() {
    // The analytics side may launch first; its coordinator's lookup must
    // park in the directory until the simulation registers the stream.
    let io = FlexIo::new(laptop(), 4);
    let io_r = io.clone();
    let rt = thread::spawn(move || {
        let hints = StreamHints { recv_timeout: Duration::from_secs(2), ..StreamHints::default() };
        io_r.open_reader("late", 0, 1, reader_core(0), reader_roster(1), hints)
    });
    thread::sleep(Duration::from_millis(50));
    let _w = io
        .open_writer("late", 0, 1, writer_core(0), writer_roster(1), StreamHints::default())
        .expect("writer registers");
    assert!(rt.join().unwrap().is_ok(), "parked lookup must resolve");
    assert_eq!(io.directory().registration_count(), 1);
    assert_eq!(io.directory().lookup_count(), 1);
}

#[test]
fn unregister_frees_the_stream_name() {
    let io = FlexIo::single_node(laptop());
    let core = writer_core(0);
    let _w1 = io
        .open_writer("reused", 0, 1, core, vec![core], StreamHints::default())
        .expect("first registration");
    let clash = io.open_writer("reused", 0, 1, core, vec![core], StreamHints::default());
    assert!(matches!(clash, Err(StreamError::Directory(_))), "{:?}", clash.as_ref().err());
    assert!(io.directory().unregister("reused"), "name was registered");
    assert!(!io.directory().unregister("reused"), "second unregister is a no-op");
    io.open_writer("reused", 0, 1, core, vec![core], StreamHints::default())
        .expect("name free again after unregister");
    assert_eq!(io.directory().registration_count(), 2);
}

#[test]
fn xml_fault_hints_stall_the_lookup_but_within_budget() {
    // The whole hint path at once: XML → GroupConfig → StreamHints →
    // FaultPlan → a lookup stall that eats part of the timeout budget but
    // still resolves, counted by the plan.
    let cfg = IoConfig::from_xml(
        r#"<adios-config><group name="g"><method transport="STREAM">
             <hint name="timeout_ms" value="500"/>
             <hint name="fault.seed" value="3"/>
             <hint name="fault.dir.stall_ms" value="40"/>
           </method></group></adios-config>"#,
    )
    .unwrap();
    let hints = StreamHints::from_config(cfg.group("g").unwrap());
    let plan = hints.faults.clone().expect("fault.seed enables the plan");
    assert_eq!(plan.spec_for("dir").stall, Some(Duration::from_millis(40)));

    let io = FlexIo::new(laptop(), 4);
    let _w = io
        .open_writer("s", 0, 1, writer_core(0), writer_roster(1), StreamHints::default())
        .unwrap();
    let start = Instant::now();
    let r = io.open_reader("s", 0, 1, reader_core(0), reader_roster(1), hints);
    assert!(r.is_ok(), "a 40 ms stall fits a 500 ms budget: {:?}", r.err());
    assert!(start.elapsed() >= Duration::from_millis(40), "the stall must be real");
    assert_eq!(plan.counters().snapshot().stalls, 1, "exactly one recorded stall");
}

#[test]
fn lookup_stall_exhausting_the_budget_times_out() {
    // Nobody ever registers `ghost`, and the stall eats 80 of the 100 ms
    // budget: the reader must fail fast (~20 ms of real waiting), not hang
    // for the full un-stalled timeout.
    let cfg = IoConfig::from_xml(
        r#"<adios-config><group name="g"><method transport="STREAM">
             <hint name="timeout_ms" value="100"/>
             <hint name="fault.seed" value="3"/>
             <hint name="fault.dir.stall_ms" value="80"/>
           </method></group></adios-config>"#,
    )
    .unwrap();
    let hints = StreamHints::from_config(cfg.group("g").unwrap());
    let plan = hints.faults.clone().unwrap();

    let io = FlexIo::single_node(laptop());
    let start = Instant::now();
    let err = io.open_reader("ghost", 0, 1, reader_core(0), reader_roster(1), hints);
    let elapsed = start.elapsed();
    assert!(matches!(err, Err(StreamError::Directory(_))), "{:?}", err.as_ref().err());
    assert!(elapsed >= Duration::from_millis(80), "stall happened: {elapsed:?}");
    assert!(elapsed < Duration::from_millis(400), "budget was shrunk, not reset");
    assert_eq!(plan.counters().snapshot().stalls, 1);
}

/// Open a reader on a registered stream under a directory stall of
/// `stall` against a 100 ms lookup budget.
fn open_under_stall(stall: Duration) -> (Result<flexio::StreamReader, StreamError>, Duration) {
    let mut plan = FaultPlan::new(3);
    plan.set("dir", FaultSpec { stall: Some(stall), ..FaultSpec::default() });
    let hints = StreamHints {
        recv_timeout: Duration::from_millis(100),
        faults: Some(Arc::new(plan)),
        ..StreamHints::default()
    };
    let io = FlexIo::single_node(laptop());
    let _w = io
        .open_writer("slow", 0, 1, writer_core(0), writer_roster(1), StreamHints::default())
        .unwrap();
    let start = Instant::now();
    let r = io.open_reader("slow", 0, 1, reader_core(0), reader_roster(1), hints);
    (r, start.elapsed())
}

#[test]
fn a_stall_longer_than_the_budget_ends_with_the_budget() {
    // The stream is registered, but the directory answers 10 s late: the
    // lookup gives up when its 100 ms budget runs out.
    let (r, elapsed) = open_under_stall(Duration::from_secs(10));
    assert!(matches!(r, Err(StreamError::Directory(_))), "{:?}", r.as_ref().err());
    assert!(elapsed >= Duration::from_millis(100), "the budget was spent: {elapsed:?}");
    assert!(elapsed < Duration::from_secs(5), "the stall outlived the budget: {elapsed:?}");
}

#[test]
fn an_endless_stall_times_out() {
    let (r, elapsed) = open_under_stall(Duration::MAX);
    assert!(matches!(r, Err(StreamError::Directory(_))), "{:?}", r.as_ref().err());
    assert!(elapsed < Duration::from_secs(5), "the stall outlived the budget: {elapsed:?}");
}

#[test]
fn distinct_streams_register_and_resolve_independently() {
    let io = FlexIo::new(laptop(), 4);
    let names = ["alpha", "beta", "gamma"];
    let writers: Vec<_> = names
        .iter()
        .map(|n| {
            io.open_writer(n, 0, 1, writer_core(0), writer_roster(1), StreamHints::default())
                .expect("register")
        })
        .collect();
    for n in names {
        io.open_reader(n, 0, 1, reader_core(0), reader_roster(1), StreamHints::default())
            .expect("resolve");
    }
    assert_eq!(io.directory().registration_count(), names.len() as u64);
    assert_eq!(io.directory().lookup_count(), names.len() as u64);
    drop(writers);
}
