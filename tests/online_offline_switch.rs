//! Cross-crate integration: the paper's "seamlessly switch analytics
//! between online and offline" property (§I.B.2, §II.B). The same
//! simulation and analytics functions run once against FlexIO stream
//! engines and once against ADIOS file engines, selected purely by the
//! XML configuration; results must be identical.

use std::thread;

use adios::{
    ArrayData, BoxSel, FileReadEngine, FileWriteEngine, IoConfig, IoMethod, LocalBlock, ReadEngine,
    Selection, StepStatus, VarValue, WriteEngine,
};
use flexio::{FlexIo, PubSubConfig, Qos, ReaderGroup, StreamHints};
use machine::{laptop, CoreLocation};

const WRITERS: usize = 3;
const STEPS: u64 = 4;
const GLOBAL: u64 = 18;

/// Application code: engine-agnostic producer.
fn produce(engine: &mut dyn WriteEngine, rank: usize) {
    for step in 0..STEPS {
        engine.begin_step(step);
        let base = rank as u64 * 6;
        let data: Vec<f64> = (0..6).map(|i| ((step + 1) * 1000 + base + i) as f64).collect();
        engine.write(
            "u",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![GLOBAL],
                    offset: vec![base],
                    count: vec![6],
                    data: ArrayData::F64(data),
                }
                .validated(),
            ),
        );
        engine.write("t", VarValue::Scalar(adios::ScalarValue::F64(step as f64 * 0.5)));
        engine.end_step();
    }
    engine.close();
}

/// Application code: engine-agnostic consumer.
fn consume(engine: &mut dyn ReadEngine) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    loop {
        match engine.begin_step() {
            StepStatus::Step(_) => {
                let u =
                    engine.read("u", &Selection::GlobalBox(BoxSel::whole(&[GLOBAL]))).expect("u");
                let VarValue::Block(b) = u else { panic!() };
                let sum: f64 = b.data.as_f64().iter().sum();
                let t = match engine.read("t", &Selection::Scalar) {
                    Some(VarValue::Scalar(adios::ScalarValue::F64(t))) => t,
                    other => panic!("bad t: {other:?}"),
                };
                out.push((sum, t));
                engine.end_step();
            }
            StepStatus::EndOfStream => break,
        }
    }
    out
}

fn run_online(hints: StreamHints) -> Vec<(f64, f64)> {
    let io = FlexIo::single_node(laptop());
    let io_w = io.clone();
    let io_r = io.clone();
    let hints_r = hints.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(WRITERS, move |comm| {
            let rank = comm.rank();
            let roster: Vec<CoreLocation> =
                (0..WRITERS).map(|r| laptop().node.location_of(r)).collect();
            let mut w = io_w
                .open_writer("switch", rank, WRITERS, roster[rank], roster, hints.clone())
                .unwrap();
            produce(&mut w, rank);
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = laptop().node.location_of(15);
            let mut r =
                io_r.open_reader("switch", 0, 1, core, vec![core], hints_r.clone()).unwrap();
            r.subscribe("u", Selection::GlobalBox(BoxSel::whole(&[GLOBAL])));
            r.subscribe("t", Selection::Scalar);
            consume(&mut r)
        })
    });
    wt.join().unwrap();
    rt.join().unwrap().pop().unwrap()
}

fn run_offline() -> Vec<(f64, f64)> {
    let dir = std::env::temp_dir().join("flexio-switch-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("switch.bp");
    // The writers run as real rank threads here too — file mode is not a
    // degenerate serial path.
    let engines = FileWriteEngine::create(&path, WRITERS);
    let engines = std::sync::Arc::new(mutexes(engines));
    let e2 = std::sync::Arc::clone(&engines);
    rankrt::launch(WRITERS, move |comm| {
        let rank = comm.rank();
        let mut engine = e2[rank].lock().unwrap();
        produce(&mut *engine, rank);
    });
    let mut reader = FileReadEngine::open(&path).unwrap();
    let out = consume(&mut reader);
    std::fs::remove_file(&path).ok();
    out
}

fn mutexes(engines: Vec<FileWriteEngine>) -> Vec<std::sync::Mutex<FileWriteEngine>> {
    engines.into_iter().map(std::sync::Mutex::new).collect()
}

#[test]
fn xml_config_switches_between_online_and_offline() {
    // The two deployment configs differ by ONE attribute.
    let stream_xml = r#"<adios-config><group name="fields">
        <method transport="STREAM"><hint name="caching" value="CACHING_ALL"/></method>
    </group></adios-config>"#;
    let file_xml = stream_xml.replace("STREAM", "FILE");

    let stream_cfg = IoConfig::from_xml(stream_xml).unwrap();
    let file_cfg = IoConfig::from_xml(&file_xml).unwrap();

    let online = match stream_cfg.group("fields").unwrap().method {
        IoMethod::Stream => {
            run_online(StreamHints::from_config(stream_cfg.group("fields").unwrap()))
        }
        IoMethod::File => unreachable!(),
    };
    let offline = match file_cfg.group("fields").unwrap().method {
        IoMethod::File => run_offline(),
        IoMethod::Stream => unreachable!(),
    };

    assert_eq!(online.len(), STEPS as usize);
    assert_eq!(online, offline, "online and offline analytics must agree exactly");
}

/// Publish the standard `produce` workload over pub/sub from `WRITERS`
/// real rank threads, returning when all ranks closed.
fn publish_hybrid(io: &FlexIo, stream: &str, cfg: &PubSubConfig, hints: &StreamHints) {
    let io = io.clone();
    let cfg = cfg.clone();
    let hints = hints.clone();
    let stream = stream.to_string();
    rankrt::launch(WRITERS, move |comm| {
        let rank = comm.rank();
        let mut w =
            io.open_publisher(&stream, rank, WRITERS, &cfg, hints.clone()).expect("open publisher");
        produce(&mut w, rank);
    });
}

#[test]
fn hybrid_mode_serves_live_tailing_and_late_replay_groups_identically() {
    // The third deployment mode the paper's online/offline dichotomy
    // misses: ONE simulation output feeding an online group that tails
    // the stream live AND an offline-style group that joins after the
    // run ended, replaying from BP spill. Both must observe the byte
    // stream a plain single-group run observes.
    let io = FlexIo::single_node(laptop());
    let spill = std::env::temp_dir().join(format!("flexio-hybrid-{}", std::process::id()));
    std::fs::remove_dir_all(&spill).ok();
    let cfg = PubSubConfig {
        groups: 2,
        // A ring far smaller than the run: most steps reach the late
        // joiner only through the BP spill segments.
        replay_steps: 1,
        spill_dir: Some(spill.clone()),
        ..PubSubConfig::default()
    };
    let hints = StreamHints::default();

    // Baseline: the same workload, one group, its own stream.
    publish_hybrid(&io, "hybrid-base", &cfg, &hints);
    let mut base =
        ReaderGroup::tail(&spill, "hybrid-base", "only", Qos::Lossless, &hints).expect("baseline");
    let baseline = consume(&mut base);
    assert_eq!(baseline.len(), STEPS as usize);

    // Hybrid run: the online group attaches in-process and tails while
    // the writers are still producing.
    let io_online = io.clone();
    let hints_online = hints.clone();
    let online_thread = thread::spawn(move || {
        let mut r = io_online
            .open_reader_group("hybrid", "online", None, hints_online)
            .expect("online group");
        let out = consume(&mut r);
        (out, r.counters().snapshot())
    });
    let writers = {
        let io = io.clone();
        let cfg = cfg.clone();
        let hints = hints.clone();
        thread::spawn(move || publish_hybrid(&io, "hybrid", &cfg, &hints))
    };
    writers.join().unwrap();
    let (online, _online_counters) = online_thread.join().unwrap();

    // The offline-style group joins AFTER the writers are gone — the
    // cross-process spill path, as a restarted analysis would.
    let mut late =
        ReaderGroup::tail(&spill, "hybrid", "late", Qos::Lossless, &hints).expect("late group");
    let offline = consume(&mut late);
    let c = late.counters().snapshot();
    assert_eq!(c.delivered, STEPS, "late joiner misses nothing");
    assert_eq!(c.replayed_from_spill, STEPS, "every step the late joiner saw came from BP spill");
    assert_eq!(c.dropped_by_qos, 0);

    assert_eq!(online, baseline, "live tailing must not perturb the data");
    assert_eq!(offline, baseline, "spill replay must reproduce the stream byte-for-byte");
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn offline_results_are_reusable_for_deep_analysis() {
    // Paper §I.A.5: data written to storage can be "read back for
    // additional or long-term analysis": open the container twice with
    // different selections.
    let dir = std::env::temp_dir().join("flexio-switch-test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.bp");
    let mut engines = FileWriteEngine::create(&path, WRITERS);
    for (rank, e) in engines.iter_mut().enumerate() {
        produce(e, rank);
    }
    // Pass 1: whole array. Pass 2: one writer's process group.
    let mut r1 = FileReadEngine::open(&path).unwrap();
    let full = consume(&mut r1);
    let mut r2 = FileReadEngine::open(&path).unwrap();
    assert_eq!(r2.begin_step(), StepStatus::Step(0));
    let pg = r2.read("u", &Selection::ProcessGroup(1)).unwrap();
    let VarValue::Block(b) = pg else { panic!() };
    assert_eq!(b.offset, vec![6]);
    assert_eq!(b.data.as_f64()[0], 1006.0);
    r2.end_step();
    assert_eq!(full.len(), STEPS as usize);
    std::fs::remove_file(&path).ok();
}
