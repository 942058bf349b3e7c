//! One rank of a cross-process coupling (or one directory node).
//!
//! Spawned by `rankrt::spawn_ranks`, which tells the process its role and
//! rank through the `RANKRT_*` environment protocol; everything else
//! (stream name, directory addresses, socket family, step count, pacing)
//! arrives via `FLEXIO_*` variables. The process narrates progress on
//! stdout — one flushed line per event — because the parent (the chaos
//! test) watches those lines to time its `kill -9`:
//!
//! * `DIRADDR <addr>` — a directory node announcing where it listens.
//! * `WORKER registered` — a writer rank's endpoint is in the directory
//!   (it cannot step before the reader group attaches).
//! * `WORKER step=<n>` — a writer/reader rank completing a step.
//! * `RESULT role=<r> rank=<k> ...` — final counters before exit.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, ScalarValue, Selection, StepStatus, VarValue,
    WriteEngine,
};
use evpath::SocketKind;
use flexio::{
    open_reader_proc, open_writer_proc, CachingLevel, FlexIo, ProcConfig, PubSubConfig, Qos,
    ReaderGroup, StreamHints, WireDirNode, WriteMode,
};
use machine::laptop;
use rankrt::RankEnv;

/// Elements each writer rank owns per step.
const PER_RANK: u64 = 4;

fn env_str(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn sock_kind() -> SocketKind {
    match env_str("FLEXIO_SOCK", "tcp").as_str() {
        "uds" => SocketKind::Uds,
        _ => SocketKind::Tcp,
    }
}

fn say(line: &str) {
    println!("{line}");
    let _ = std::io::stdout().flush();
}

fn hints(write_side: bool) -> StreamHints {
    let caching = match env_str("FLEXIO_CACHING", "all").as_str() {
        "none" => CachingLevel::NoCaching,
        "local" => CachingLevel::CachingLocal,
        _ => CachingLevel::CachingAll,
    };
    StreamHints {
        caching,
        write_mode: WriteMode::Sync,
        recv_timeout: Duration::from_millis(env_u64("FLEXIO_TIMEOUT_MS", 400)),
        retries: 2,
        eos_on_silence: !write_side,
        ..StreamHints::default()
    }
}

fn proc_config(env: &RankEnv, write_side: bool) -> ProcConfig {
    ProcConfig {
        stream: env_str("FLEXIO_STREAM", "chaos"),
        rank: env.rank,
        nranks: env.nranks,
        dir_addrs: env_str("FLEXIO_DIR_ADDRS", "")
            .split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect(),
        kind: sock_kind(),
        hints: hints(write_side),
    }
}

/// Directory node role: announce the listen address, then run the node's
/// gossip rounds and request port on a reactor until killed (peer
/// addresses arrive later via a `dpeers` request from the parent, in rank
/// order — the rank is the node id).
fn run_dirnode(env: &RankEnv) {
    let node = WireDirNode::bind(
        env.rank as u64,
        sock_kind(),
        Duration::from_millis(env_u64("FLEXIO_DIR_GOSSIP_MS", 20)),
        None,
    )
    .expect("bind directory node");
    say(&format!("DIRADDR {}", node.addr()));
    let mut reactor = flexio_reactor::Reactor::new();
    node.spawn_on(&mut reactor);
    reactor.run();
}

/// Writer rank role: produce `FLEXIO_STEPS` steps of a 1-D global array,
/// each element stamped `step*1000 + owner rank`, pacing by
/// `FLEXIO_STEP_MS` between steps (the window the chaos test kills in).
fn run_writer(env: &RankEnv) {
    let steps = env_u64("FLEXIO_STEPS", 4);
    let step_ms = env_u64("FLEXIO_STEP_MS", 50);
    let mut w = open_writer_proc(proc_config(env, true)).expect("open writer");
    say("WORKER registered");
    w.link().wait_reader_info(Duration::from_secs(10)).expect("readers attached");
    let global = PER_RANK * env.nranks as u64;
    let offset = PER_RANK * env.rank as u64;
    let mut done = 0;
    for step in 0..steps {
        w.begin_step(step);
        let data = vec![(step * 1000 + env.rank as u64) as f64; PER_RANK as usize];
        w.write("nelems", VarValue::Scalar(ScalarValue::U64(global)));
        w.write(
            "field",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![global],
                    offset: vec![offset],
                    count: vec![PER_RANK],
                    data: ArrayData::F64(data),
                }
                .validated(),
            ),
        );
        if w.try_end_step().is_err() {
            break;
        }
        done += 1;
        say(&format!("WORKER step={step}"));
        std::thread::sleep(Duration::from_millis(step_ms));
    }
    w.close();
    let c = w.link().counters.snapshot();
    say(&format!(
        "RESULT role=writer rank={} steps={done} evictions={} degraded={} eos_synth={}",
        env.rank, c.evictions, c.degraded_steps, c.eos_synthesized
    ));
}

/// Reader rank role: subscribe to the whole array (so every writer rank
/// feeds every reader rank) and verify each element's stamp until EOS.
fn run_reader(env: &RankEnv) {
    let mut r = open_reader_proc(proc_config(env, false)).expect("open reader");
    let global = PER_RANK * r.link().writer_count as u64;
    let sel = Selection::GlobalBox(BoxSel::whole(&[global]));
    r.subscribe("field", sel.clone());
    let mut steps = 0u64;
    loop {
        match r.begin_step() {
            StepStatus::Step(step) => {
                let v = r.read("field", &sel).expect("field present");
                let VarValue::Block(block) = v else { panic!("field is a block") };
                let ArrayData::F64(data) = &block.data else { panic!("field is f64") };
                assert_eq!(data.len() as u64, global, "full array assembled");
                for (i, val) in data.iter().enumerate() {
                    let owner = i as u64 / PER_RANK;
                    assert_eq!(*val, (step * 1000 + owner) as f64, "element {i} of step {step}");
                }
                r.end_step();
                steps += 1;
                say(&format!("WORKER step={step}"));
            }
            StepStatus::EndOfStream => break,
        }
    }
    r.close();
    let eos_synth = r.link().counters.snapshot().eos_synthesized;
    say(&format!("RESULT role=reader rank={} steps={steps} eos_synth={eos_synth}", env.rank));
}

/// Elastic reader role (paper §III.B.2 closed-loop): rank 0 opens as a
/// lone active reader over a provisioned pool of `nranks` slots, scales
/// the roster to the full pool after step 1 (announced in the next `go`,
/// effective one step later), and rides gather-timeout eviction when an
/// activated member goes silent. Member ranks have no roster — they just
/// keep knocking (`try_begin_step`, retrying on timeout) until the
/// coordinator starts gathering them, then ride the stream to EOS.
///
/// Narration: `WORKER attached` once the rank is registered, `WORKER
/// scaled` when rank 0 commits the scale-out, `WORKER step=N` per
/// completed step. After `attached` a member reads one line (or EOF) from
/// stdin before it steps, so the chaos parent, holding that stdin open,
/// kills it on this line *before* its first step.
fn run_elastic_reader(env: &RankEnv) {
    let mut cfg = proc_config(env, false);
    cfg.hints.caching = CachingLevel::NoCaching;
    let mut r = open_reader_proc(cfg).expect("open reader");
    let global = PER_RANK * r.link().writer_count as u64;
    let sel = Selection::GlobalBox(BoxSel::whole(&[global]));
    r.subscribe("field", sel.clone());
    say("WORKER attached");
    if env.rank > 0 {
        let _ = std::io::stdin().read_line(&mut String::new());
    }

    let validate = |step: u64, v: VarValue| {
        let VarValue::Block(block) = v else { panic!("field is a block") };
        let ArrayData::F64(data) = &block.data else { panic!("field is f64") };
        assert_eq!(data.len() as u64, global, "full array assembled");
        for (i, val) in data.iter().enumerate() {
            let owner = i as u64 / PER_RANK;
            assert_eq!(*val, (step * 1000 + owner) as f64, "element {i} of step {step}");
        }
    };

    let mut steps = 0u64;
    if env.rank == 0 {
        let roster = std::sync::Arc::new(flexio::ElasticRoster::new(1));
        r.enable_elastic(std::sync::Arc::clone(&roster));
        loop {
            match r.begin_step() {
                StepStatus::Step(step) => {
                    validate(step, r.read("field", &sel).expect("field present"));
                    r.end_step();
                    steps += 1;
                    say(&format!("WORKER step={step}"));
                    if step == 1 {
                        roster.resize(env.nranks);
                        say("WORKER scaled");
                    }
                }
                StepStatus::EndOfStream => break,
            }
        }
        roster.close();
        r.close();
        let c = r.link().counters.snapshot();
        say(&format!(
            "RESULT role=elastic rank=0 steps={steps} evictions={} degraded={} eos_synth={}",
            c.evictions, c.degraded_steps, c.eos_synthesized
        ));
    } else {
        loop {
            match r.try_begin_step() {
                Ok(StepStatus::Step(step)) => {
                    validate(step, r.read("field", &sel).expect("field present"));
                    r.end_step();
                    steps += 1;
                    say(&format!("WORKER step={step}"));
                }
                Ok(StepStatus::EndOfStream) => break,
                // Not yet in the committed roster: the coordinator isn't
                // gathering this rank, so the `go` wait times out. Knock
                // again.
                Err(flexio::link::StreamError::Timeout) => continue,
                Err(e) => panic!("elastic member rank {}: {e}", env.rank),
            }
        }
        r.close();
        let eos_synth = r.link().counters.snapshot().eos_synthesized;
        say(&format!("RESULT role=elastic rank={} steps={steps} eos_synth={eos_synth}", env.rank));
    }
}

/// Pub/sub publisher role: one writer rank feeding a spill-backed
/// [`flexio::StreamLog`] (`FLEXIO_SPILL`, `FLEXIO_REPLAY`), narrating
/// each sealed step — by the time `WORKER step=N` prints, step N's BP
/// segment and manifest entry are durable, so the chaos parent can time
/// its `kill -9` against guaranteed-visible state.
fn run_publisher(env: &RankEnv) {
    let steps = env_u64("FLEXIO_STEPS", 4);
    let step_ms = env_u64("FLEXIO_STEP_MS", 50);
    let cfg = PubSubConfig {
        replay_steps: env_u64("FLEXIO_REPLAY", 2).max(1) as usize,
        spill_dir: Some(PathBuf::from(env_str("FLEXIO_SPILL", "/tmp/flexio-pubsub-spill"))),
        ..PubSubConfig::default()
    };
    let io = FlexIo::single_node(laptop());
    let stream = env_str("FLEXIO_STREAM", "chaos");
    let mut w = io.open_publisher(&stream, 0, 1, &cfg, hints(true)).expect("open publisher");
    let mut done = 0;
    for step in 0..steps {
        w.begin_step(step);
        let data: Vec<f64> = (0..PER_RANK).map(|e| (step * 1000 + e) as f64).collect();
        w.write(
            "field",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![PER_RANK],
                    offset: vec![0],
                    count: vec![PER_RANK],
                    data: ArrayData::F64(data),
                }
                .validated(),
            ),
        );
        w.write("t", VarValue::Scalar(ScalarValue::F64(step as f64 * 0.5)));
        if w.try_end_step().is_err() {
            break;
        }
        done += 1;
        say(&format!("WORKER step={step}"));
        std::thread::sleep(Duration::from_millis(step_ms));
    }
    w.close();
    let spilled = w.log().counters().snapshot().spilled_steps;
    say(&format!("RESULT role=publisher rank={} steps={done} spilled={spilled}", env.rank));
}

/// Pub/sub subscriber role: a lossless reader group tailing the stream
/// through the spill directory (`FLEXIO_GROUP` names the group, so a
/// restart resumes the same durable cursor). The commit — which persists
/// the cursor — happens BEFORE the step is narrated: once the parent has
/// read `WORKER step=N`, a `kill -9` cannot lose that step.
fn run_subscriber(env: &RankEnv) {
    let spill = PathBuf::from(env_str("FLEXIO_SPILL", "/tmp/flexio-pubsub-spill"));
    let stream = env_str("FLEXIO_STREAM", "chaos");
    let group = env_str("FLEXIO_GROUP", "g");
    let mut r =
        ReaderGroup::tail(&spill, &stream, &group, Qos::Lossless, &hints(false)).expect("attach");
    let resumed = r.counters().snapshot().resumed_from;
    let mut steps = 0u64;
    let mut first = None;
    loop {
        match r.try_begin_step() {
            Ok(StepStatus::Step(step)) => {
                let v = r.read("field", &Selection::ProcessGroup(0)).expect("field present");
                let VarValue::Block(block) = v else { panic!("field is a block") };
                let ArrayData::F64(data) = &block.data else { panic!("field is f64") };
                for (e, val) in data.iter().enumerate() {
                    assert_eq!(*val, (step * 1000 + e as u64) as f64, "element {e} of step {step}");
                }
                r.end_step();
                first.get_or_insert(step);
                steps += 1;
                say(&format!("WORKER step={step}"));
            }
            Ok(StepStatus::EndOfStream) => break,
            Err(e) => panic!("subscriber fetch failed: {e}"),
        }
    }
    let c = r.counters().snapshot();
    r.close();
    say(&format!(
        "RESULT role=subscriber rank={} steps={steps} first={} resumed={resumed} replayed={} eos_synth={}",
        env.rank,
        first.unwrap_or(0),
        c.replayed_from_spill,
        c.eos_synthesized,
    ));
}

fn main() {
    let env = RankEnv::from_env().expect("spawned via rankrt::spawn_ranks");
    match env.name.as_str() {
        "dirnode" => run_dirnode(&env),
        "writer" => run_writer(&env),
        "reader" => run_reader(&env),
        "elastic" => run_elastic_reader(&env),
        "publisher" => run_publisher(&env),
        "subscriber" => run_subscriber(&env),
        other => panic!("unknown worker role `{other}`"),
    }
}
