//! The isolated-layer run: each layer's public entry points timed on
//! their own, on the payload shapes of the workloads, as the median of
//! at least thirty calls. These are the numbers a layer optimisation
//! moves first; the README's table says which end-to-end metric each
//! should then move, and on which workload.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::bp::{BpBuilder, BpFile};
use adios::{ArrayData, BoxSel, LocalBlock, ProcessGroup, Selection, VarValue};
use apps::{distribution_function, range_query, render_slab, RangeQuery, TransferFunction};
use evpath::socket::socket_pair;
use evpath::{BoxedReceiver, BoxedSender, PackedArray, Record, RecvPoll, ShmTransport, SocketKind};
use flexio::directory::{DirectoryService, InProcDirectory};
use flexio::link::LinkState;
use flexio::plugins::InstalledPlugin;
use flexio::redistribute::{extract_chunk, plan, BoxAssembler, ChunkPlan, Subscription, VarMeta};
use flexio::{
    FlexIo, MonitorEvent, PerfMonitor, PluginPlacement, PluginSpec, SealedStep, SpillStore,
    StreamHints,
};
use flexio_query::{lower_pushdown, ChunkView, Executor, Expr, Plan};
use machine::laptop;

use crate::harness::{median, now_ns};

/// One value of the per-layer ledger: an isolated measurement here, an
/// in-situ span or an exact count in [`crate::report`].
pub struct LayerValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Median duration in ns of `calls` calls of `f`, after three untimed
/// ones. `f` returns false when its own output check failed.
fn time_calls(calls: usize, ok: &mut bool, mut f: impl FnMut() -> bool) -> f64 {
    for _ in 0..3 {
        *ok &= f();
    }
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = now_ns();
            let good = f();
            let dt = now_ns() - t;
            *ok &= good;
            dt as f64
        })
        .collect();
    median(&samples)
}

fn f64_block(shape: Vec<u64>, data: Vec<f64>, packed: bool) -> LocalBlock {
    let data = if packed {
        ArrayData::Packed(PackedArray::from_f64s(&data))
    } else {
        ArrayData::F64(data)
    };
    LocalBlock { offset: vec![0; shape.len()], count: shape.clone(), global_shape: shape, data }
        .validated()
}

fn ramp(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| i as f64 * scale).collect()
}

/// Receive one message the way the stream layer's `recv_record` does:
/// poll, backing off spin → yield → park.
fn recv_polling(rx: &mut BoxedReceiver) -> Option<Vec<u8>> {
    let mut backoff = flexio_reactor::Backoff::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match rx.poll_recv() {
            RecvPoll::Msg(m) => return Some(m),
            RecvPoll::Empty if Instant::now() < deadline => backoff.snooze(),
            _ => return None,
        }
    }
}

type Pair = (BoxedSender, BoxedReceiver);

/// One-way latency of a `bytes`-sized message: half the median round
/// trip of a ping-pong between the calling thread and an echo thread.
fn oneway_ns(make: &dyn Fn() -> Pair, bytes: usize, calls: usize, ok: &mut bool) -> f64 {
    let (mut ping_tx, mut ping_rx) = make();
    let (mut pong_tx, mut pong_rx) = make();
    let payload = vec![0xA5u8; bytes];
    let round = std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(m) = recv_polling(&mut ping_rx) {
                if m.len() == 1 {
                    break;
                }
                pong_tx.send(&m);
            }
        });
        let round = time_calls(calls, ok, || {
            ping_tx.send(&payload);
            recv_polling(&mut pong_rx).is_some_and(|m| m.len() == bytes)
        });
        ping_tx.send(&[0]); // a one-byte frame tells the echo thread to stop
        round
    });
    round / 2.0
}

/// Sustained one-direction throughput in GB/s over `frames` frames.
fn stream_gbps(make: &dyn Fn() -> Pair, bytes: usize, frames: usize, ok: &mut bool) -> f64 {
    let (mut tx, mut rx) = make();
    let payload = vec![0x5Au8; bytes];
    const WARM: usize = 4;
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..WARM + frames {
                tx.send(&payload);
            }
            tx // keep the half alive until the drain is done
        });
        for _ in 0..WARM {
            *ok &= recv_polling(&mut rx).is_some();
        }
        let start = now_ns();
        for _ in 0..frames {
            *ok &= recv_polling(&mut rx).is_some_and(|m| m.len() == bytes);
        }
        (frames * bytes) as f64 / (now_ns() - start) as f64
    })
}

/// Run every isolated layer. `quick` keeps the shapes and cuts the call
/// counts; `scratch` holds the spill segments of the spill layer.
pub fn run_layers(quick: bool, scratch: &Path) -> (Vec<LayerValue>, bool) {
    let calls = if quick { 5 } else { 30 };
    let mut ok = true;
    let mut out: Vec<LayerValue> = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, value: f64, samples: usize| {
        out.push(LayerValue { name, unit, value, samples });
    };

    // ---- evpath::ffs: the GTS zion block (5.6 MB) and a 4 KiB control-
    // sized array, encode and decode.
    let zion = VarValue::Block(f64_block(vec![100_000, 7], ramp(700_000, 0.5), true));
    let gts_record = zion.to_record();
    let gts_bytes = Arc::new(gts_record.encode_segments().to_vec());
    let v = time_calls(calls, &mut ok, || {
        let enc = gts_record.encode_segments();
        std::hint::black_box(enc.as_slices()).len() > 1 && enc.total_len() == gts_bytes.len()
    });
    push("ffs.encode_segments_ns.gts", "ns", v, calls);
    let v = time_calls(calls, &mut ok, || {
        Record::decode_shared(std::hint::black_box(&gts_bytes))
            .is_ok_and(|r| r.len() == gts_record.len())
    });
    push("ffs.decode_shared_ns.gts", "ns", v, calls);
    let small = VarValue::Block(f64_block(vec![512], ramp(512, 0.5), true)).to_record();
    let small_bytes = small.encode();
    let v = time_calls(calls * 10, &mut ok, || {
        std::hint::black_box(&small).encode().len() == small_bytes.len()
    });
    push("ffs.encode_ns.4k", "ns", v, calls * 10);
    let v = time_calls(calls * 10, &mut ok, || {
        Record::decode(std::hint::black_box(&small_bytes)).is_ok_and(|r| r.len() == small.len())
    });
    push("ffs.decode_ns.4k", "ns", v, calls * 10);

    // ---- transports: shm with the stream's default queue geometry,
    // loopback tcp with the stream's framing.
    let shm: &dyn Fn() -> Pair = &|| {
        let h = StreamHints::default();
        ShmTransport::pair(h.queue_entries, h.inline_capacity)
    };
    let tcp: &dyn Fn() -> Pair = &|| socket_pair(SocketKind::Tcp);
    let small_calls = calls * 10;
    push("shm.oneway_ns.4k", "ns", oneway_ns(shm, 4 * KIB, small_calls, &mut ok), small_calls);
    push("shm.oneway_ns.1m", "ns", oneway_ns(shm, MIB, calls, &mut ok), calls);
    push("shm.stream_gbps.8m", "GB/s", stream_gbps(shm, 8 * MIB, calls, &mut ok), calls);
    push("tcp.oneway_ns.4k", "ns", oneway_ns(tcp, 4 * KIB, small_calls, &mut ok), small_calls);
    push("tcp.oneway_ns.1m", "ns", oneway_ns(tcp, MIB, calls, &mut ok), calls);
    push("tcp.stream_gbps.8m", "GB/s", stream_gbps(tcp, 8 * MIB, calls, &mut ok), calls);

    // ---- flexio::redistribute. The plan is the M x N shape two cores
    // cannot run live: 64 writers (4x4x4 blocks of 16^3) x 16 reader
    // slabs x 22 variables.
    let names: Vec<String> = (0..22).map(|s| format!("species{s:02}")).collect();
    let dists: Vec<Vec<VarMeta>> = (0..64u64)
        .map(|w| {
            let offset = vec![(w % 4) * 16, (w / 4 % 4) * 16, (w / 16) * 16];
            names
                .iter()
                .map(|n| VarMeta::Block {
                    name: n.clone(),
                    shape: vec![64; 3],
                    offset: offset.clone(),
                    count: vec![16; 3],
                })
                .collect()
        })
        .collect();
    let sels: Vec<Vec<Subscription>> = (0..16u64)
        .map(|r| {
            let slab = BoxSel::new(vec![0, 0, r * 4], vec![64, 64, 4]);
            names
                .iter()
                .map(|n| Subscription { var: n.clone(), sel: Selection::GlobalBox(slab.clone()) })
                .collect()
        })
        .collect();
    let v = time_calls(calls, &mut ok, || {
        let p = plan(std::hint::black_box(&dists), &sels);
        // Every writer block meets 4 of the 16 z-slabs, for each variable.
        p.iter().flatten().map(Vec::len).sum::<usize>() == 64 * 4 * 22
    });
    push("redistribute.plan_ns.64x16", "ns", v, calls);
    // One S3D step's worth of extraction and assembly: 22 species, the
    // z in [8,24) slab of a 32^3 block.
    let slab = BoxSel::new(vec![0, 0, 8], vec![32, 32, 16]);
    let species = VarValue::Block(f64_block(vec![32; 3], ramp(32 * 32 * 32, 1e-2), true));
    let chunk = ChunkPlan { var: "species00".to_string(), region: Some(slab.clone()) };
    let v = time_calls(calls, &mut ok, || {
        (0..22).all(|_| match &*extract_chunk(std::hint::black_box(&species), &chunk) {
            VarValue::Block(b) => b.count == slab.count,
            VarValue::Scalar(_) => false,
        })
    });
    push("redistribute.extract_ns.s3d", "ns", v, calls);
    let VarValue::Block(wire_chunk) = extract_chunk(&species, &chunk).into_owned() else {
        unreachable!("a region of a block is a block")
    };
    let wire_chunk = f64_block_at(&wire_chunk, true);
    let v = time_calls(calls, &mut ok, || {
        (0..22).all(|_| {
            let mut asm = BoxAssembler::new(&slab, std::hint::black_box(&wire_chunk));
            asm.add_region(&wire_chunk, &slab);
            asm.received_elements() == slab.num_elements() && asm.finish().count == slab.count
        })
    });
    push("redistribute.assemble_ns.s3d", "ns", v, calls);

    // ---- the query pushdown path: compile the lowered codelet, run it
    // over the 131 000-row field, and the reader-side executor on the same.
    let rows = 131_000usize;
    let field: Vec<f64> = (0..rows).map(|i| (i % 1000) as f64 / 1000.0).collect();
    let query_plan = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(0.2)));
    let lowered = lower_pushdown(&query_plan).expect("a one-variable `<` filter lowers");
    let spec = PluginSpec {
        var: lowered.var,
        source: lowered.source,
        placement: PluginPlacement::WriterSide,
    };
    let v = time_calls(calls, &mut ok, || InstalledPlugin::install(spec.clone()).is_ok());
    push("codelet.compile_ns", "ns", v, calls);
    let plugin = InstalledPlugin::install(spec.clone()).expect("lowered source compiles");
    let field_value = VarValue::Block(f64_block(vec![rows as u64], field.clone(), true));
    let v = time_calls(calls, &mut ok, || match plugin.apply(std::hint::black_box(&field_value)) {
        Ok((VarValue::Block(b), _)) => b.data.len() * 5 == rows,
        _ => false,
    });
    push("plugins.apply_ns.1m", "ns", v, calls);
    let field_data = ArrayData::Packed(PackedArray::from_f64s(&field));
    let v = time_calls(calls, &mut ok, || {
        let mut exec = Executor::new(query_plan.clone()).expect("valid plan");
        let stats = exec.feed_step(0, &[ChunkView::raw(vec![std::hint::black_box(&field_data)])]);
        stats.rows_out * 5 == stats.rows_in
    });
    push("query.feed_step_ns.1m", "ns", v, calls);

    // ---- spill and BP: one 1 MiB step, written through and read back.
    let mut group = ProcessGroup::new(0, 0);
    group.push("field", VarValue::Block(f64_block(vec![131_072], ramp(131_072, 0.25), true)));
    let spill_root = scratch.join(format!("layers-{}", std::process::id()));
    match SpillStore::create(&spill_root, "layers") {
        Ok(store) => {
            let sealed = SealedStep { seq: 0, step: 0, groups: Arc::new(vec![group.clone()]) };
            let v = time_calls(calls, &mut ok, || store.write_step(&sealed).is_ok());
            push("spill.write_step_ns.1m", "ns", v, calls);
            let v = time_calls(calls, &mut ok, || {
                store.read_step(0).is_ok_and(|s| s.digest() == sealed.digest())
            });
            push("spill.read_step_ns.1m", "ns", v, calls);
        }
        Err(e) => {
            eprintln!("layers: cannot create spill store: {e}");
            ok = false;
        }
    }
    let _ = std::fs::remove_dir_all(&spill_root);
    let bp_bytes = {
        let b = BpBuilder::new();
        b.append(group.clone());
        b.build()
    };
    let v = time_calls(calls, &mut ok, || {
        let b = BpBuilder::new();
        b.append(std::hint::black_box(&group).clone());
        b.build().len() == bp_bytes.len()
    });
    push("bp.build_ns.1m", "ns", v, calls);
    let v = time_calls(calls, &mut ok, || {
        BpFile::parse(std::hint::black_box(&bp_bytes)).is_ok_and(|f| f.steps() == [0])
    });
    push("bp.parse_ns.1m", "ns", v, calls);

    // ---- set-up path: directory registration + lookup, stream open.
    let dir = InProcDirectory::new();
    let link = LinkState::for_tests();
    let mut serial = 0u64;
    let v = time_calls(calls * 10, &mut ok, || {
        serial += 1;
        let name = format!("stream-{serial}");
        dir.register(&name, Arc::clone(&link)).is_ok()
            && dir.lookup(&name, Duration::from_secs(1)).is_ok()
    });
    push("directory.register_lookup_ns", "ns", v, calls * 10);
    let core = laptop().node.location_of(0);
    let v = time_calls(calls, &mut ok, || {
        let io = FlexIo::single_node(laptop());
        let w = io.open_writer("s", 0, 1, core, vec![core], StreamHints::default());
        let r = io.open_reader("s", 0, 1, core, vec![core], StreamHints::default());
        w.is_ok() && r.is_ok()
    });
    push("stream.open_ns", "ns", v, calls);

    // ---- monitor: one `record` call, timed in batches of 1000 because a
    // single call is shorter than the clock's resolution.
    let monitor = PerfMonitor::new();
    let v = time_calls(calls, &mut ok, || {
        for i in 0..1000u64 {
            monitor.record(MonitorEvent::DataSend, i, 0, 4096, 0);
        }
        true
    }) / 1000.0;
    push("monitor.record_ns", "ns", v, calls);
    ok &= monitor.count(MonitorEvent::DataSend) == (calls as u64 + 3) * 1000;

    // ---- apps: the GTS analytics chain on one 100 000-particle array,
    // and the slab renderer on the subscribed S3D slab.
    let particles: Vec<f64> = {
        let gts = apps::Gts::new(
            0,
            apps::GtsConfig { particles_per_rank: 100_000, ..Default::default() },
        );
        gts.zion().data.clone()
    };
    let v = time_calls(calls, &mut ok, || {
        let p = std::hint::black_box(&particles);
        let dist = distribution_function(p, 256, (-2.0, 2.0));
        let selected = range_query(p, &RangeQuery::twenty_percent_core(&dist));
        let hist = apps::analytics::HistogramSet::build(&selected, (-2.0, 2.0), 32);
        hist.v_par.total() == (selected.len() / apps::ATTRS) as f64
    });
    push("apps.range_query_ns.gts", "ns", v, calls);
    let slab_block = f64_block_at(&wire_chunk, false);
    let tf = TransferFunction { lo: 0.2, hi: 0.9, opacity: 0.3 };
    let v = time_calls(calls, &mut ok, || {
        render_slab(std::hint::black_box(&slab_block), &tf).coverage() > 0.0
    });
    push("apps.render_slab_ns.s3d", "ns", v, calls);

    (out, ok)
}

/// The same block with its payload packed (a wire view) or owned.
fn f64_block_at(block: &LocalBlock, packed: bool) -> LocalBlock {
    let mut owned = block.clone();
    owned.make_owned();
    if packed {
        owned.data = ArrayData::Packed(PackedArray::from_f64s(owned.data.as_f64()));
    }
    owned
}
