//! One selection read for every engine: a step written by three ranks
//! reads the same through `FileReadEngine` over one BP container and over
//! the POSIX per-rank containers, through a `ReaderGroup` on a
//! `StreamLog`, and through a `StreamReader` over inproc channels — all of
//! them answer with `adios::select`.

use std::path::PathBuf;
use std::thread;

use adios::{
    select, ArrayData, BoxSel, FileReadEngine, FileWriteEngine, LocalBlock, PosixWriteEngine,
    ReadEngine, ScalarValue, Selection, StepStatus, VarValue, WriteEngine,
};
use flexio::{FlexIo, PubSubConfig, StreamHints};
use machine::laptop;

const WRITERS: usize = 3;
/// `u`'s global extent; the writers cover `0..9`, so `9..12` is a gap.
const GLOBAL: u64 = 12;

fn block(offset: u64, data: ArrayData) -> LocalBlock {
    LocalBlock { global_shape: vec![GLOBAL], offset: vec![offset], count: vec![3], data }
        .validated()
}

fn u_block(rank: usize) -> VarValue {
    let data = (0..3).map(|i| (rank * 10 + i) as f64).collect();
    VarValue::Block(block(rank as u64 * 3, ArrayData::F64(data)))
}

/// One step from one rank: scalar `t` (the same on every rank, as in the
/// ADIOS data model) and rank `rank`'s slice of `u`.
fn write_step(engine: &mut dyn WriteEngine, rank: usize) {
    engine.begin_step(0);
    engine.write("t", VarValue::Scalar(ScalarValue::F64(0.5)));
    engine.write("u", u_block(rank));
    engine.end_step();
}

fn boxed(offset: u64, count: u64) -> Selection {
    Selection::GlobalBox(BoxSel::new(vec![offset], vec![count]))
}

/// Every case, process-group reads first: a stream delivers a rank's
/// whole value ahead of its box chunks only when it was subscribed first.
fn cases() -> Vec<(&'static str, Selection)> {
    vec![
        ("u", Selection::ProcessGroup(1)),
        ("t", Selection::ProcessGroup(2)),
        ("u", Selection::ProcessGroup(5)),
        ("t", Selection::Scalar),
        ("u", Selection::Scalar),
        ("u", Selection::GlobalBox(BoxSel::whole(&[GLOBAL]))),
        ("u", boxed(2, 5)),
        ("u", boxed(7, 4)),
        ("u", boxed(10, 2)),
        ("nope", boxed(0, 3)),
    ]
}

/// Read every case from the one step `engine` holds, then expect the end.
fn read_cases(engine: &mut dyn ReadEngine) -> Vec<Option<VarValue>> {
    assert_eq!(engine.begin_step(), StepStatus::Step(0));
    let answers = cases().iter().map(|(name, sel)| engine.read(name, sel)).collect();
    engine.end_step();
    assert_eq!(engine.begin_step(), StepStatus::EndOfStream);
    answers
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexio-readeq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn from_bp_file() -> Vec<Option<VarValue>> {
    let dir = scratch("bp");
    let path = dir.join("eq.bp");
    for (rank, mut e) in FileWriteEngine::create(&path, WRITERS).into_iter().enumerate() {
        write_step(&mut e, rank);
        e.close();
    }
    let answers = read_cases(&mut FileReadEngine::open(&path).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    answers
}

fn from_posix_files() -> Vec<Option<VarValue>> {
    let dir = scratch("posix");
    for (rank, mut e) in PosixWriteEngine::create(&dir, "eq", WRITERS).into_iter().enumerate() {
        write_step(&mut e, rank);
        e.close();
    }
    let answers = read_cases(&mut FileReadEngine::open_posix(&dir, "eq", WRITERS).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    answers
}

fn from_stream_log() -> Vec<Option<VarValue>> {
    let io = FlexIo::single_node(laptop());
    let cfg = PubSubConfig::default();
    let mut pubs: Vec<_> = (0..WRITERS)
        .map(|rank| io.open_publisher("eq", rank, WRITERS, &cfg, StreamHints::default()).unwrap())
        .collect();
    let mut group = io.open_reader_group("eq", "g", None, StreamHints::default()).unwrap();
    for (rank, p) in pubs.iter_mut().enumerate() {
        write_step(p, rank);
        p.close();
    }
    read_cases(&mut group)
}

fn from_stream() -> Vec<Option<VarValue>> {
    let io = FlexIo::new(laptop(), 4);
    let node = laptop().node;
    let writer_cores: Vec<_> = (0..WRITERS).map(|r| node.location_of(r)).collect();
    let reader_core = node.location_of(laptop().total_cores() - 1);
    let io_w = io.clone();
    let writers = thread::spawn(move || {
        rankrt::launch_named(WRITERS, "sim", move |comm| {
            let rank = comm.rank();
            let cores = writer_cores.clone();
            let mut w = io_w
                .open_writer("eq", rank, WRITERS, cores[rank], cores, StreamHints::default())
                .expect("open writer");
            write_step(&mut w, rank);
            w.close();
        })
    });
    let mut r = io
        .open_reader("eq", 0, 1, reader_core, vec![reader_core], StreamHints::default())
        .expect("open reader");
    for (name, sel) in cases() {
        r.subscribe(name, sel);
    }
    let answers = read_cases(&mut r);
    writers.join().expect("writers");
    answers
}

#[test]
fn every_engine_answers_every_selection_alike() {
    let file = from_bp_file();
    let f64s = |v: &Option<VarValue>| match v {
        Some(VarValue::Block(b)) => b.data.as_f64().to_vec(),
        other => panic!("a block expected, got {other:?}"),
    };
    // What the one read means, spelled out once on the file engine.
    assert_eq!(f64s(&file[0]), [10.0, 11.0, 12.0], "rank 1's block");
    assert_eq!(file[1], Some(VarValue::Scalar(ScalarValue::F64(0.5))), "rank 2's scalar");
    assert_eq!(file[2], None, "no rank 5");
    assert_eq!(file[3], Some(VarValue::Scalar(ScalarValue::F64(0.5))));
    assert_eq!(file[4], None, "`u` is no scalar");
    let whole = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0, 0.0, 0.0, 0.0];
    assert_eq!(f64s(&file[5]), whole, "gaps stay zero");
    assert_eq!(f64s(&file[6]), [2.0, 10.0, 11.0, 12.0, 20.0], "across three ranks");
    assert_eq!(f64s(&file[7]), [21.0, 22.0, 0.0, 0.0], "partly covered");
    assert_eq!(file[8], None, "a box no block intersects");
    assert_eq!(file[9], None, "an absent variable");

    assert_eq!(from_posix_files(), file, "POSIX per-rank containers");
    assert_eq!(from_stream_log(), file, "pub/sub reader group");
    assert_eq!(from_stream(), file, "stream reader");
}

#[test]
fn disagreeing_blocks_read_as_nothing() {
    let f64s = VarValue::Block(block(0, ArrayData::F64(vec![1.0; 3])));
    let u64s = VarValue::Block(block(3, ArrayData::U64(vec![1; 3])));
    let whole = Selection::GlobalBox(BoxSel::whole(&[GLOBAL]));
    assert_eq!(select([(0, &f64s), (1, &u64s)], &whole), None, "element types differ");
    // A block that misses the box is not consulted.
    assert!(select([(0, &f64s), (1, &u64s)], &boxed(0, 2)).is_some());

    let mut wider = block(3, ArrayData::F64(vec![2.0; 3]));
    wider.global_shape = vec![GLOBAL + 1];
    let wider = VarValue::Block(wider);
    assert_eq!(select([(0, &f64s), (1, &wider)], &whole), None, "global shapes differ");

    let plane = VarValue::Block(
        LocalBlock {
            global_shape: vec![2, 2],
            offset: vec![0, 0],
            count: vec![2, 2],
            data: ArrayData::F64(vec![0.0; 4]),
        }
        .validated(),
    );
    assert_eq!(select([(0, &f64s), (1, &plane)], &whole), None, "ranks differ");
}
