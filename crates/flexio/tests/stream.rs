//! End-to-end tests of the stream protocol: coupled writer/reader
//! programs running as real thread groups, exchanging real bytes.

use std::thread;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, ScalarValue, Selection, StepStatus, VarValue,
    WriteEngine,
};
use flexio::{CachingLevel, FlexIo, PluginPlacement, PluginSpec, StreamHints, WriteMode};
use machine::{laptop, CoreLocation};

/// Deterministic core roster: writers fill node 0 onward, readers fill
/// from the last node backward, so small configs get cross-placement
/// coverage.
fn writer_core(rank: usize) -> CoreLocation {
    let m = laptop().node;
    m.location_of(rank)
}

fn reader_core(rank: usize) -> CoreLocation {
    let m = laptop();
    m.node.location_of(m.total_cores() - 1 - rank)
}

fn writer_roster(n: usize) -> Vec<CoreLocation> {
    (0..n).map(writer_core).collect()
}

fn reader_roster(n: usize) -> Vec<CoreLocation> {
    (0..n).map(reader_core).collect()
}

/// Run a coupled writer/reader pair; returns (writer results, reader
/// results).
fn couple<TW, TR>(
    nwriters: usize,
    nreaders: usize,
    hints: StreamHints,
    writer_body: impl Fn(flexio::StreamWriter, usize) -> TW + Send + Sync + 'static,
    reader_body: impl Fn(flexio::StreamReader, usize) -> TR + Send + Sync + 'static,
) -> (Vec<TW>, Vec<TR>)
where
    TW: Send + 'static,
    TR: Send + 'static,
{
    let io = FlexIo::new(laptop(), 4);
    let io_w = io.clone();
    let io_r = io.clone();
    let hints_w = hints.clone();
    let hints_r = hints;
    let wt = thread::spawn(move || {
        rankrt::launch_named(nwriters, "sim", move |comm| {
            let rank = comm.rank();
            let w = io_w
                .open_writer(
                    "stream",
                    rank,
                    nwriters,
                    writer_core(rank),
                    writer_roster(nwriters),
                    hints_w.clone(),
                )
                .expect("open writer");
            writer_body(w, rank)
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch_named(nreaders, "ana", move |comm| {
            let rank = comm.rank();
            let r = io_r
                .open_reader(
                    "stream",
                    rank,
                    nreaders,
                    reader_core(rank),
                    reader_roster(nreaders),
                    hints_r.clone(),
                )
                .expect("open reader");
            reader_body(r, rank)
        })
    });
    (wt.join().expect("writers"), rt.join().expect("readers"))
}

fn block_1d(offset: u64, data: Vec<f64>, global: u64) -> VarValue {
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

#[test]
fn global_array_mxn_redistribution() {
    // 3 writers each own 4 elements of a 12-element array; 2 readers
    // split it 6/6 — the Fig. 3 MxN pattern. 3 steps.
    const STEPS: u64 = 3;
    let (_, reader_sums) = couple(
        3,
        2,
        StreamHints::default(),
        |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..4).map(|i| (step * 100 + rank as u64 * 4 + i) as f64).collect();
                w.write("field", block_1d(rank as u64 * 4, data, 12));
                w.end_step();
            }
            w.close();
        },
        |mut r, rank| {
            let my_box = BoxSel::new(vec![rank as u64 * 6], vec![6]);
            r.subscribe("field", Selection::GlobalBox(my_box.clone()));
            let mut sums = Vec::new();
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("field", &Selection::GlobalBox(my_box.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        // Element at global index g must be step*100 + g.
                        for (i, &x) in b.data.as_f64().iter().enumerate() {
                            let g = rank as u64 * 6 + i as u64;
                            assert_eq!(x, (step * 100 + g) as f64, "step {step} idx {g}");
                        }
                        sums.push(b.data.as_f64().iter().sum::<f64>());
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            sums.len()
        },
    );
    assert_eq!(reader_sums, vec![STEPS as usize, STEPS as usize]);
}

#[test]
fn process_group_pattern_with_scalars() {
    // 4 writers; 2 readers each subscribed to two writers' groups.
    let (_, ok) = couple(
        4,
        2,
        StreamHints::default(),
        |mut w, rank| {
            w.begin_step(0);
            w.write("nparticles", VarValue::Scalar(ScalarValue::U64(100 + rank as u64)));
            w.write("zion", block_1d(0, vec![rank as f64; 5], 5));
            w.end_step();
            w.close();
        },
        |mut r, rank| {
            // Reader rank j wants writer ranks j and j+2 (the paper's
            // "analytics specifies the process groups it wants to read by
            // simulation processes' MPI ranks").
            for w in [rank, rank + 2] {
                r.subscribe("zion", Selection::ProcessGroup(w));
            }
            r.subscribe("nparticles", Selection::Scalar);
            assert_eq!(r.begin_step(), StepStatus::Step(0));
            for w in [rank, rank + 2] {
                let v = r.read("zion", &Selection::ProcessGroup(w)).unwrap();
                let VarValue::Block(b) = v else { panic!() };
                assert!(b.data.as_f64().iter().all(|&x| x == w as f64));
            }
            // Scalar comes from writer rank 0.
            let s = r.read("nparticles", &Selection::Scalar).unwrap();
            assert_eq!(s, VarValue::Scalar(ScalarValue::U64(100)));
            r.end_step();
            assert_eq!(r.begin_step(), StepStatus::EndOfStream);
            true
        },
    );
    assert_eq!(ok, vec![true, true]);
}

fn run_caching(level: CachingLevel, steps: u64) -> (u64, u64, u64, u64, u64, u64, u64) {
    let hints = StreamHints { caching: level, ..StreamHints::default() };
    // Snapshot counters only after both programs are fully done: every
    // rank returns its shared link, and we read the counters post-join.
    let (links, _) = couple(
        3,
        2,
        hints,
        move |mut w, rank| {
            for step in 0..steps {
                w.begin_step(step);
                w.write("v", block_1d(rank as u64 * 2, vec![step as f64; 2], 6));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, _| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![6])));
            while let StepStatus::Step(_) = r.begin_step() {
                r.end_step();
            }
        },
    );
    links[0].counters.snapshot()
}

#[test]
fn caching_levels_cut_handshake_traffic() {
    const STEPS: u64 = 5;
    let (g_no, e_no, b_no, d_no, ..) = run_caching(CachingLevel::NoCaching, STEPS);
    let (g_lo, e_lo, _b_lo, d_lo, ..) = run_caching(CachingLevel::CachingLocal, STEPS);
    let (g_all, e_all, b_all, d_all, ..) = run_caching(CachingLevel::CachingAll, STEPS);

    // Data volume identical in all modes.
    assert_eq!(d_no, d_lo);
    assert_eq!(d_no, d_all);

    // NO_CACHING gathers on both sides every step (writer 2 + reader 1
    // non-coordinator ranks per step), plus one: the reader rank cannot
    // know the final begin_step will hit EOS, so it eagerly re-sends its
    // subscriptions once more.
    assert_eq!(g_no, STEPS * 3 + 1, "gathers: {g_no}");
    // Exchange happens twice per step (writer_info + reader_info), plus
    // one for the same reason: reader_info is posted as soon as its content
    // is fixed — on entry to begin_step here — and the reader coordinator
    // cannot know that begin_step will hit EOS.
    assert_eq!(e_no, STEPS * 2 + 1);

    // CACHING_LOCAL: gather only on the first step, exchange still per step.
    assert_eq!(g_lo, 3, "local caching skips step 1 after warmup: {g_lo}");
    // The trailing post leaves from the last end_step instead.
    assert_eq!(e_lo, STEPS * 2 + 1);

    // CACHING_ALL: the whole handshake happens exactly once.
    assert_eq!(g_all, 3);
    assert_eq!(e_all, 2);
    assert_eq!(b_all, 3, "plan broadcast only once: {b_all}");
    assert!(b_no >= STEPS * 3, "plan re-broadcast every step: {b_no}");
}

#[test]
fn batching_aggregates_data_messages() {
    let run = |batching: bool| {
        let hints = StreamHints { batching, ..StreamHints::default() };
        let (counters, _) = couple(
            2,
            1,
            hints,
            |mut w, rank| {
                w.begin_step(0);
                // 22 variables, as in S3D (paper §IV.B.1).
                for v in 0..22 {
                    w.write(&format!("species{v}"), block_1d(rank as u64 * 3, vec![1.0; 3], 6));
                }
                w.end_step();
                let link = w.link().clone();
                w.close();
                link
            },
            |mut r, _| {
                for v in 0..22 {
                    r.subscribe(
                        &format!("species{v}"),
                        Selection::GlobalBox(BoxSel::new(vec![0], vec![6])),
                    );
                }
                while let StepStatus::Step(_) = r.begin_step() {
                    r.end_step();
                }
            },
        );
        counters[0].counters.snapshot().3 // data_msgs, post-join
    };
    let unbatched = run(false);
    let batched = run(true);
    assert_eq!(unbatched, 44, "22 vars × 2 writers, one message each");
    assert_eq!(batched, 2, "one batch per writer");
}

#[test]
fn sync_mode_waits_for_acks() {
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };
    let (counters, _) = couple(
        2,
        2,
        hints,
        |mut w, rank| {
            for step in 0..3 {
                w.begin_step(step);
                w.write("v", block_1d(rank as u64 * 4, vec![0.5; 4], 8));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, rank| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![rank as u64 * 4], vec![4])));
            while let StepStatus::Step(_) = r.begin_step() {
                r.end_step();
            }
        },
    );
    let acks = counters[0].counters.snapshot().5;
    // Each reader acks each writer that sent to it, each step. With the
    // 4-element halves each reader overlaps exactly one writer: 2 acks/step.
    assert_eq!(acks, 6, "acks={acks}");
    // And sync waits were recorded by the monitor (on either side's rank).
    // (The link is shared; writer rank 0's view suffices.)
}

#[test]
fn writer_side_plugin_conditions_data_before_transport() {
    let spec = PluginSpec {
        var: "velocity".into(),
        source: codelet::plugins::bounding_box("velocity", 10.0, 20.0).into(),
        placement: PluginPlacement::WriterSide,
    };
    let (_, results) = couple(
        2,
        1,
        StreamHints::default(),
        |mut w, rank| {
            w.begin_step(0);
            let vals: Vec<f64> = (0..10).map(|i| (rank * 10 + i) as f64).collect();
            w.write("velocity", block_1d(0, vals, 10));
            w.end_step();
            w.close();
        },
        move |mut r, _| {
            r.subscribe("velocity", Selection::ProcessGroup(0));
            r.subscribe("velocity", Selection::ProcessGroup(1));
            r.install_plugin(spec.clone());
            assert_eq!(r.begin_step(), StepStatus::Step(0));
            // Writer 0 wrote 0..9 → only 10 survives... values 0..=9:
            // in [10,20] none. Writer 1 wrote 10..19 → all.
            let v0 = r.read("velocity", &Selection::ProcessGroup(0)).unwrap();
            let v1 = r.read("velocity", &Selection::ProcessGroup(1)).unwrap();
            let VarValue::Block(b0) = v0 else { panic!() };
            let VarValue::Block(b1) = v1 else { panic!() };
            // The plug-in also published its selection count.
            let c1 = r.read("dc_selected", &Selection::ProcessGroup(1)).unwrap();
            r.end_step();
            (b0.data.as_f64().to_vec(), b1.data.as_f64().to_vec(), c1)
        },
    );
    let (b0, b1, c1) = &results[0];
    assert!(b0.is_empty(), "no writer-0 values in range: {b0:?}");
    assert_eq!(b1.len(), 10);
    assert!(b1.iter().all(|&x| (10.0..=20.0).contains(&x)));
    assert_eq!(*c1, VarValue::Scalar(ScalarValue::I64(10)));
}

#[test]
fn plugin_migrates_between_address_spaces() {
    // Start writer-side, migrate to reader-side after step 0; the data
    // must remain identically conditioned (stateless codelets).
    let writer_spec = PluginSpec {
        var: "v".into(),
        source: codelet::plugins::unit_conversion("v", 2.0).into(),
        placement: PluginPlacement::WriterSide,
    };
    let (_, results) = couple(
        1,
        1,
        StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() },
        |mut w, _| {
            for step in 0..4 {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![1.0, 2.0, 3.0], 3));
                w.end_step();
            }
            w.close();
        },
        move |mut r, _| {
            r.subscribe("v", Selection::ProcessGroup(0));
            r.install_plugin(writer_spec.clone());
            let mut outputs = Vec::new();
            let mut migrated = false;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("v", &Selection::ProcessGroup(0)).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        outputs.push(b.data.as_f64().to_vec());
                        r.end_step();
                        if step == 1 && !migrated {
                            migrated = true;
                            r.install_plugin(PluginSpec {
                                var: "v".into(),
                                source: codelet::plugins::unit_conversion("v", 2.0).into(),
                                placement: PluginPlacement::ReaderSide,
                            });
                        }
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            outputs
        },
    );
    for (step, out) in results[0].iter().enumerate() {
        assert_eq!(out, &vec![2.0, 4.0, 6.0], "step {step} must be conditioned");
    }
    assert_eq!(results[0].len(), 4);
}

#[test]
fn transactional_steps_commit() {
    let hints = StreamHints { transactional: true, ..StreamHints::default() };
    let (_, steps_seen) = couple(
        2,
        2,
        hints,
        |mut w, rank| {
            for step in 0..3 {
                w.begin_step(step);
                w.write("v", block_1d(rank as u64 * 2, vec![step as f64; 2], 4));
                w.end_step(); // returns only after global 2PC commit
            }
            w.close();
        },
        |mut r, _| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![4])));
            let mut seen = Vec::new();
            while let StepStatus::Step(s) = r.begin_step() {
                seen.push(s);
                r.end_step();
            }
            seen
        },
    );
    assert_eq!(steps_seen[0], vec![0, 1, 2]);
    assert_eq!(steps_seen[1], vec![0, 1, 2]);
}

#[test]
fn eos_reaches_every_reader_rank() {
    let (_, eos_counts) = couple(
        2,
        3,
        StreamHints::default(),
        |mut w, rank| {
            w.begin_step(0);
            w.write("x", block_1d(rank as u64, vec![1.0], 2));
            w.end_step();
            w.close();
        },
        |mut r, _| {
            r.subscribe("x", Selection::GlobalBox(BoxSel::new(vec![0], vec![2])));
            let mut steps = 0;
            loop {
                match r.begin_step() {
                    StepStatus::Step(_) => {
                        steps += 1;
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            // A second begin_step after EOS stays at EOS.
            assert_eq!(r.begin_step(), StepStatus::EndOfStream);
            steps
        },
    );
    assert_eq!(eos_counts, vec![1, 1, 1]);
}

#[test]
fn file_and_stream_engines_are_interchangeable() {
    // The paper's headline API property: the same application code runs
    // against file mode and stream mode (§II.B "stream mode is compatible
    // with file I/O in that it can be switched with file mode without
    // code changes"). Drive both engines through the trait objects.
    fn produce(engine: &mut dyn WriteEngine, rank: usize) {
        for step in 0..2u64 {
            engine.begin_step(step);
            engine.write(
                "field",
                block_1d(rank as u64 * 2, vec![(step * 10 + rank as u64) as f64; 2], 4),
            );
            engine.end_step();
        }
        engine.close();
    }
    fn consume(engine: &mut dyn ReadEngine) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        loop {
            match engine.begin_step() {
                StepStatus::Step(_) => {
                    let v = engine
                        .read("field", &Selection::GlobalBox(BoxSel::new(vec![0], vec![4])))
                        .unwrap();
                    let VarValue::Block(b) = v else { panic!() };
                    out.push(b.data.as_f64().to_vec());
                    engine.end_step();
                }
                StepStatus::EndOfStream => break,
            }
        }
        out
    }

    // File mode.
    let dir = std::env::temp_dir().join("flexio-engine-swap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("swap.bp");
    {
        let mut engines = adios::FileWriteEngine::create(&path, 2);
        // Interleave steps: engine API requires per-rank sequential use.
        for (rank, e) in engines.iter_mut().enumerate() {
            produce(e, rank);
        }
    }
    let mut file_reader = adios::FileReadEngine::open(&path).unwrap();
    let from_file = consume(&mut file_reader);

    // Stream mode, same closures.
    let (_, from_stream) = couple(
        2,
        1,
        StreamHints::default(),
        |mut w, rank| produce(&mut w, rank),
        |mut r, _| {
            r.subscribe("field", Selection::GlobalBox(BoxSel::new(vec![0], vec![4])));
            consume(&mut r)
        },
    );

    assert_eq!(from_file, from_stream[0], "identical app code, identical data");
    std::fs::remove_file(&path).ok();
}

#[test]
fn monitoring_observes_movement() {
    let (bytes_sent, _) = couple(
        2,
        1,
        StreamHints::default(),
        |mut w, rank| {
            w.begin_step(0);
            w.write("v", block_1d(rank as u64 * 100, vec![0.0; 100], 200));
            w.end_step();
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, _| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![200])));
            while let StepStatus::Step(_) = r.begin_step() {
                r.end_step();
            }
        },
    );
    // 200 f64s plus framing — at least 1600 bytes must have been recorded.
    let total = bytes_sent[0].monitor.total_bytes(flexio::MonitorEvent::DataSend);
    assert!(total >= 1600, "monitor saw {total} bytes");
}

#[test]
fn data_recv_bytes_match_data_send() {
    use flexio::{MonitorEvent, Transport};
    // One small owned block and one packed above the zero-copy threshold.
    for transport in [Transport::Auto, Transport::Shm, Transport::Tcp] {
        let hints = StreamHints::builder().transport(transport).build();
        let (links, _) = couple(
            1,
            1,
            hints,
            |mut w, _| {
                for step in 0..4u64 {
                    w.begin_step(step);
                    w.write("small", block_1d(0, vec![step as f64; 10], 10));
                    w.write("large", block_1d(0, vec![step as f64; 2048], 2048));
                    w.end_step();
                }
                let link = w.link().clone();
                w.close();
                link
            },
            |mut r, _| {
                r.subscribe("small", Selection::ProcessGroup(0));
                r.subscribe("large", Selection::ProcessGroup(0));
                while let StepStatus::Step(_) = r.begin_step() {
                    r.end_step();
                }
            },
        );
        let monitor = &links[0].monitor;
        let sent = monitor.total_bytes(MonitorEvent::DataSend);
        assert!(sent >= 4 * 2058 * 8, "{transport:?}: sent {sent} bytes");
        assert_eq!(monitor.total_bytes(MonitorEvent::DataRecv), sent, "{transport:?}");
        assert_eq!(monitor.count(MonitorEvent::DataRecv), monitor.count(MonitorEvent::DataSend));
    }
}

#[test]
fn directory_is_out_of_the_critical_path() {
    let io = FlexIo::new(laptop(), 4);
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(3, move |comm| {
            let rank = comm.rank();
            let mut w = io_w
                .open_writer(
                    "d",
                    rank,
                    3,
                    writer_core(rank),
                    writer_roster(3),
                    StreamHints::default(),
                )
                .unwrap();
            for step in 0..10 {
                w.begin_step(step);
                w.write("v", block_1d(rank as u64, vec![1.0], 3));
                w.end_step();
            }
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(2, move |comm| {
            let rank = comm.rank();
            let mut r = io_r
                .open_reader(
                    "d",
                    rank,
                    2,
                    reader_core(rank),
                    reader_roster(2),
                    StreamHints::default(),
                )
                .unwrap();
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![3])));
            while let StepStatus::Step(_) = r.begin_step() {
                r.end_step();
            }
        })
    });
    wt.join().unwrap();
    rt.join().unwrap();
    // 10 steps moved data, but the directory served exactly one
    // registration and one lookup (coordinators only, setup only).
    assert_eq!(io.directory().registration_count(), 1);
    assert_eq!(io.directory().lookup_count(), 1);
}

#[test]
fn double_open_same_stream_name_fails() {
    let io = FlexIo::single_node(laptop());
    let core = CoreLocation { node: 0, numa: 0, core: 0 };
    let _w1 = io.open_writer("dup", 0, 1, core, vec![core], StreamHints::default()).unwrap();
    let err = io.open_writer("dup", 0, 1, core, vec![core], StreamHints::default());
    assert!(err.is_err(), "second registration must fail");
}

#[test]
fn reader_open_times_out_without_writer() {
    let io = FlexIo::single_node(laptop());
    let core = CoreLocation { node: 0, numa: 0, core: 0 };
    let hints = StreamHints {
        recv_timeout: std::time::Duration::from_millis(50),
        ..StreamHints::default()
    };
    let err = io.open_reader("ghost", 0, 1, core, vec![core], hints);
    assert!(err.is_err());
}

#[test]
fn cross_node_placement_uses_rdma_and_delivers() {
    // Writers on node 0, readers on node 3 (staging placement): data must
    // cross the simulated interconnect.
    let io = FlexIo::new(laptop(), 4);
    let io_w = io.clone();
    let io_r = io.clone();
    let wt = thread::spawn(move || {
        rankrt::launch(2, move |comm| {
            let rank = comm.rank();
            let roster: Vec<CoreLocation> =
                (0..2).map(|r| CoreLocation { node: 0, numa: 0, core: r }).collect();
            let mut w = io_w
                .open_writer("x", rank, 2, roster[rank], roster.clone(), StreamHints::default())
                .unwrap();
            w.begin_step(0);
            w.write("v", block_1d(rank as u64 * 50_000, vec![rank as f64; 50_000], 100_000));
            w.end_step();
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_comm| {
            let roster = vec![CoreLocation { node: 3, numa: 0, core: 0 }];
            let mut r = io_r
                .open_reader("x", 0, 1, roster[0], roster.clone(), StreamHints::default())
                .unwrap();
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![100_000])));
            assert_eq!(r.begin_step(), StepStatus::Step(0));
            let v =
                r.read("v", &Selection::GlobalBox(BoxSel::new(vec![0], vec![100_000]))).unwrap();
            let VarValue::Block(b) = v else { panic!() };
            assert_eq!(b.data.as_f64()[0], 0.0);
            assert_eq!(b.data.as_f64()[99_999], 1.0);
            r.end_step();
        })
    });
    wt.join().unwrap();
    rt.join().unwrap();
}
