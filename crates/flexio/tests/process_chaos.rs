//! Cross-process chaos battery: a writer rank, a reader group and a
//! 3-node directory cluster run as *separate OS processes* over real
//! sockets, and the test kills one of them with `SIGKILL` mid-run — a
//! rank mid-step, or the directory node the ranks registered with.
//!
//! The parent watches each child's flushed stdout lines (`DIRADDR`,
//! `WORKER step=N`, `RESULT ...`) to time the kill and to collect final
//! protocol counters. A killed process is pure silence on the wire —
//! exactly what the eviction (writer side) and EOS-synthesis (reader
//! side) machinery must absorb.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use rankrt::{spawn_ranks, RankProc};

const BIN: &str = env!("CARGO_BIN_EXE_flexio-worker");
const DEADLINE: Duration = Duration::from_secs(90);

/// Child processes that must not outlive the test (directory nodes serve
/// forever; workers might wedge on a bug).
struct Group {
    procs: Vec<RankProc>,
}

impl Drop for Group {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

impl Group {
    fn kill(&mut self, rank: usize) {
        let p = &mut self.procs[rank];
        p.child.kill().expect("SIGKILL delivered");
        let _ = p.child.wait();
    }
}

/// A progress line from one child.
#[derive(Debug)]
struct Event {
    role: &'static str,
    rank: usize,
    line: String,
}

/// Start the 3-node directory cluster: read each node's announced
/// address, then bootstrap every node with the full peer list.
fn start_directory(kind: &str) -> (Group, String) {
    let envs = vec![("FLEXIO_SOCK".to_string(), kind.to_string())];
    let mut procs = spawn_ranks(BIN, "dirnode", 3, &envs).expect("spawn dirnodes");
    let mut addrs = Vec::new();
    for p in &mut procs {
        drop(p.child.stdin.take());
        let stdout = p.child.stdout.as_mut().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("dirnode announces");
        let addr = line.trim().strip_prefix("DIRADDR ").expect("DIRADDR line");
        addrs.push(addr.to_string());
    }
    for addr in &addrs {
        flexio::send_peer_list(addr, &addrs).expect("peer bootstrap");
    }
    (Group { procs }, addrs.join(","))
}

/// Spawn a worker rank group and feed its stdout lines into `tx`. Every
/// rank's stdin is closed at once (a rank that waits on it goes on).
fn start_workers(
    role: &'static str,
    nranks: usize,
    envs: &[(String, String)],
    tx: &Sender<Event>,
) -> Group {
    start_workers_holding(role, nranks, envs, tx, &[])
}

/// [`start_workers`], but the ranks in `held` keep their stdin open —
/// an elastic member waits on it before its first step — until they are
/// killed or the group drops.
fn start_workers_holding(
    role: &'static str,
    nranks: usize,
    envs: &[(String, String)],
    tx: &Sender<Event>,
    held: &[usize],
) -> Group {
    let mut procs = spawn_ranks(BIN, role, nranks, envs).expect("spawn workers");
    for p in &mut procs {
        if !held.contains(&p.rank) {
            drop(p.child.stdin.take());
        }
        let stdout = p.child.stdout.take().expect("stdout piped");
        let rank = p.rank;
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(Event { role, rank, line });
            }
        });
    }
    Group { procs }
}

fn worker_envs(
    kind: &str,
    stream: &str,
    dir_addrs: &str,
    steps: u64,
    step_ms: u64,
) -> Vec<(String, String)> {
    [
        ("FLEXIO_SOCK", kind),
        ("FLEXIO_STREAM", stream),
        ("FLEXIO_DIR_ADDRS", dir_addrs),
        ("FLEXIO_STEPS", &steps.to_string()),
        ("FLEXIO_STEP_MS", &step_ms.to_string()),
        ("FLEXIO_TIMEOUT_MS", "400"),
        ("FLEXIO_DIR_GOSSIP_MS", "20"),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

/// `RESULT role=writer rank=0 steps=4 ...` → field map.
fn parse_result(line: &str) -> HashMap<String, String> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn field(result: &HashMap<String, String>, key: &str) -> u64 {
    result.get(key).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("field {key}"))
}

fn next_event(rx: &Receiver<Event>, deadline: Instant) -> Event {
    let now = Instant::now();
    assert!(now < deadline, "chaos scenario timed out");
    rx.recv_timeout(deadline - now).expect("children still talking")
}

fn pubsub_envs(
    stream: &str,
    spill: &std::path::Path,
    steps: u64,
    step_ms: u64,
) -> Vec<(String, String)> {
    [
        ("FLEXIO_STREAM", stream),
        ("FLEXIO_SPILL", &spill.display().to_string()),
        ("FLEXIO_REPLAY", "2"),
        ("FLEXIO_STEPS", &steps.to_string()),
        ("FLEXIO_STEP_MS", &step_ms.to_string()),
        ("FLEXIO_TIMEOUT_MS", "400"),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

/// Kill -9 a pub/sub reader group mid-replay: its durable cursor (written
/// at each commit, before the step is narrated) survives the kill, so a
/// restarted group with the same name resumes exactly where it committed
/// and the two incarnations together deliver every step — zero lost under
/// lossless QoS.
#[test]
fn killing_a_subscriber_mid_replay_resumes_from_its_durable_cursor() {
    const STEPS: u64 = 8;
    let spill = std::env::temp_dir().join(format!("flexio-chaos-sub-{}", std::process::id()));
    std::fs::remove_dir_all(&spill).ok();
    let envs = pubsub_envs("chaos-sub-kill", &spill, STEPS, 150);
    let (tx, rx) = channel();
    let _publisher = start_workers("publisher", 1, &envs, &tx);

    let deadline = Instant::now() + DEADLINE;
    // Wait for the first sealed step so the spill directory exists, then
    // start the subscriber.
    loop {
        let ev = next_event(&rx, deadline);
        if ev.role == "publisher" && ev.line == "WORKER step=0" {
            break;
        }
    }
    let mut subs = start_workers("subscriber", 1, &envs, &tx);

    // Kill the subscriber right after it commits (and narrates) step 2.
    let mut killed = false;
    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while !results.contains_key(&("publisher", 0)) {
        let ev = next_event(&rx, deadline);
        if !killed && ev.role == "subscriber" && ev.line == "WORKER step=2" {
            subs.kill(0);
            killed = true;
        }
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    assert!(killed, "subscriber progressed far enough to be killed");
    let publisher = &results[&("publisher", 0)];
    assert_eq!(
        field(publisher, "steps"),
        STEPS,
        "the kill never touches the writer: {publisher:?}"
    );
    assert_eq!(field(publisher, "spilled"), STEPS, "write-through spill retains every step");

    // Restart the group under the same name: it must resume from the
    // durable cursor and drain the remainder out of the BP spill.
    let _subs2 = start_workers("subscriber", 1, &envs, &tx);
    while !results.contains_key(&("subscriber", 0)) {
        let ev = next_event(&rx, deadline);
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    let sub = &results[&("subscriber", 0)];
    let resumed = field(sub, "resumed");
    assert!(resumed >= 3, "step 2 was committed before the kill: {sub:?}");
    assert_eq!(field(sub, "first"), resumed, "restart picks up exactly at the cursor: {sub:?}");
    assert_eq!(field(sub, "steps"), STEPS - resumed, "no step delivered twice or lost: {sub:?}");
    assert_eq!(field(sub, "replayed"), STEPS - resumed, "the remainder came from BP spill");
    assert_eq!(field(sub, "eos_synth"), 0, "closed stream ends cleanly: {sub:?}");
    std::fs::remove_dir_all(&spill).ok();
}

/// Kill -9 the pub/sub publisher mid-stream: the spill manifest is never
/// finalized, so the tailing group drains every step sealed before the
/// kill and then synthesizes end-of-stream off writer silence.
#[test]
fn killing_the_publisher_leaves_subscribers_draining_spilled_steps_to_eos() {
    const STEPS: u64 = 6;
    let spill = std::env::temp_dir().join(format!("flexio-chaos-pub-{}", std::process::id()));
    std::fs::remove_dir_all(&spill).ok();
    let envs = pubsub_envs("chaos-pub-kill", &spill, STEPS, 300);
    let (tx, rx) = channel();
    let mut publisher = start_workers("publisher", 1, &envs, &tx);

    let deadline = Instant::now() + DEADLINE;
    loop {
        let ev = next_event(&rx, deadline);
        if ev.role == "publisher" && ev.line == "WORKER step=0" {
            break;
        }
    }
    let _subs = start_workers("subscriber", 1, &envs, &tx);

    let mut killed = false;
    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while !results.contains_key(&("subscriber", 0)) {
        let ev = next_event(&rx, deadline);
        if !killed && ev.role == "publisher" && ev.line == "WORKER step=1" {
            publisher.kill(0);
            killed = true;
        }
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    assert!(killed, "publisher progressed far enough to be killed");
    let sub = &results[&("subscriber", 0)];
    let steps = field(sub, "steps");
    assert!(steps >= 2, "steps sealed before the kill are delivered: {sub:?}");
    assert!(steps < STEPS, "the subscriber cannot see steps that never sealed: {sub:?}");
    assert_eq!(field(sub, "eos_synth"), 1, "writer silence synthesizes one EOS: {sub:?}");
    std::fs::remove_dir_all(&spill).ok();
}

/// Kill -9 a reader rank mid-step: the writer must evict the silent
/// reader after ack timeouts, re-plan the MxN distribution around it, and
/// still complete every remaining step (degraded); the surviving reader
/// must observe all steps and a clean end-of-stream.
#[test]
fn killing_a_reader_rank_evicts_it_and_the_step_loop_completes() {
    let (_dirs, dir_addrs) = start_directory("tcp");
    let envs = worker_envs("tcp", "chaos-reader-kill", &dir_addrs, 4, 200);
    let (tx, rx) = channel();
    let _writers = start_workers("writer", 1, &envs, &tx);
    let mut readers = start_workers("reader", 2, &envs, &tx);

    let deadline = Instant::now() + DEADLINE;
    let mut killed = false;
    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while !(results.contains_key(&("writer", 0)) && results.contains_key(&("reader", 0))) {
        let ev = next_event(&rx, deadline);
        if !killed && ev.role == "reader" && ev.rank == 1 && ev.line.starts_with("WORKER step=") {
            readers.kill(1);
            killed = true;
        }
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    assert!(killed, "reader rank 1 progressed far enough to be killed");

    let writer = &results[&("writer", 0)];
    assert_eq!(field(writer, "steps"), 4, "writer completed every step");
    assert!(field(writer, "evictions") >= 1, "silent reader was evicted: {writer:?}");
    assert!(field(writer, "degraded") >= 1, "steps after the kill ran degraded: {writer:?}");

    let survivor = &results[&("reader", 0)];
    assert_eq!(field(survivor, "steps"), 4, "surviving reader saw every step");
    assert_eq!(field(survivor, "eos_synth"), 0, "writer closed cleanly, no synthesized EOS");
}

/// Scale-out under fire: rank 0 starts as the lone active elastic
/// reader over a provisioned pool of 3 rank slots, commits a scale-out
/// to the full pool after step 1 — and one of the newly-added members is
/// `kill -9`'d right after attaching, before its first step. The
/// coordinator's sub-gather must time out on the dead member, evict it,
/// re-plan the MxN distribution around it and complete every step; the
/// surviving member joins mid-run and rides to a clean EOS.
#[test]
fn killing_a_newly_added_elastic_rank_evicts_it_and_the_run_completes() {
    const STEPS: u64 = 8;
    let (_dirs, dir_addrs) = start_directory("tcp");
    let mut envs = worker_envs("tcp", "chaos-elastic-kill", &dir_addrs, STEPS, 150);
    // Elastic membership rides the per-step re-gather/re-plan handshake.
    envs.push(("FLEXIO_CACHING".to_string(), "none".to_string()));
    // The writer must outwait the reader coordinator's eviction stall
    // (the gather burns its full timeout × retries budget on the dead
    // member before evicting), so its own patience is set well above it.
    let mut writer_envs_ = envs.clone();
    for (k, v) in &mut writer_envs_ {
        if k == "FLEXIO_TIMEOUT_MS" {
            *v = "2000".to_string();
        }
    }
    let (tx, rx) = channel();
    let _writers = start_workers("writer", 1, &writer_envs_, &tx);
    // Rank 2 is held at its attach until the kill lands; rank 1 goes on.
    let mut elastics = start_workers_holding("elastic", 3, &envs, &tx, &[2]);

    let deadline = Instant::now() + DEADLINE;
    let mut killed = false;
    let mut victim_stepped = false;
    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while !(results.contains_key(&("elastic", 0)) && results.contains_key(&("elastic", 1))) {
        let ev = next_event(&rx, deadline);
        if ev.role == "elastic" && ev.rank == 2 {
            if ev.line.starts_with("WORKER step=") {
                victim_stepped = true;
            }
            if !killed && ev.line == "WORKER attached" {
                elastics.kill(2);
                killed = true;
            }
        }
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    assert!(killed, "the victim rank announced its attach");
    assert!(!victim_stepped, "rank 2 must die before completing its first step");

    let coord = &results[&("elastic", 0)];
    assert_eq!(field(coord, "steps"), STEPS, "no dropped steps despite the eviction: {coord:?}");
    assert!(field(coord, "evictions") >= 1, "dead member was evicted: {coord:?}");
    assert!(field(coord, "degraded") >= 1, "the eviction step ran degraded: {coord:?}");
    assert_eq!(field(coord, "eos_synth"), 0, "writers closed cleanly: {coord:?}");

    let survivor = &results[&("elastic", 1)];
    let joined = field(survivor, "steps");
    assert!(joined >= 1, "surviving member joined mid-run: {survivor:?}");
    assert!(
        joined <= STEPS - 3,
        "scale-out commits at a step boundary, two steps after the resize: {survivor:?}"
    );
    assert_eq!(field(survivor, "eos_synth"), 0, "survivor got a real EOS fan-out: {survivor:?}");
}

/// Kill -9 the writer between steps: the reader coordinator's control
/// channel goes silent, so it must synthesize end-of-stream and forward
/// it to every reader rank — both readers exit cleanly having seen only
/// the steps produced before the kill.
#[test]
fn killing_the_writer_synthesizes_eos_for_all_readers() {
    let (_dirs, dir_addrs) = start_directory("uds");
    let envs = worker_envs("uds", "chaos-writer-kill", &dir_addrs, 6, 300);
    let (tx, rx) = channel();
    let mut writers = start_workers("writer", 1, &envs, &tx);
    let _readers = start_workers("reader", 2, &envs, &tx);

    let deadline = Instant::now() + DEADLINE;
    let mut killed = false;
    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while !(results.contains_key(&("reader", 0)) && results.contains_key(&("reader", 1))) {
        let ev = next_event(&rx, deadline);
        if !killed && ev.role == "writer" && ev.line == "WORKER step=1" {
            writers.kill(0);
            killed = true;
        }
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    assert!(killed, "writer progressed far enough to be killed");

    for rank in 0..2 {
        let reader = &results[&("reader", rank)];
        let steps = field(reader, "steps");
        assert!(steps >= 2, "reader {rank} kept the steps before the kill: {reader:?}");
        assert!(steps < 6, "reader {rank} cannot have seen steps after the kill: {reader:?}");
    }
    let coord = &results[&("reader", 0)];
    assert!(field(coord, "eos_synth") >= 1, "coordinator synthesized EOS: {coord:?}");
}

/// Kill -9 the directory process the writer registered with — the first
/// in `FLEXIO_DIR_ADDRS`, the node every client tries first — once gossip
/// has carried that registration to a survivor and before the reader
/// group opens. (A writer cannot step before its readers attach, so this
/// is the earliest the node can die without taking the stream's only
/// registration with it.) Everything after is failover: the readers find
/// the writer, register themselves and are found by it through the two
/// nodes left, and the run completes every step with nobody evicted.
#[test]
fn killing_the_directory_node_the_ranks_registered_with_fails_over() {
    const STEPS: u64 = 4;
    let (mut dirs, dir_addrs) = start_directory("tcp");
    let envs = worker_envs("tcp", "chaos-dirnode-kill", &dir_addrs, STEPS, 50);
    let (tx, rx) = channel();
    let _writers = start_workers("writer", 1, &envs, &tx);

    let deadline = Instant::now() + DEADLINE;
    loop {
        let ev = next_event(&rx, deadline);
        if ev.role == "writer" && ev.line == "WORKER registered" {
            break;
        }
    }
    let survivor = dir_addrs.split(',').nth(1).expect("three nodes").to_string();
    flexio::RemoteDirectory::new(vec![survivor])
        .lookup("chaos-dirnode-kill#w0", Duration::from_secs(5))
        .expect("gossip replicates the writer's registration off node 0");
    dirs.kill(0);
    let _readers = start_workers("reader", 2, &envs, &tx);

    let mut results: HashMap<(&'static str, usize), HashMap<String, String>> = HashMap::new();
    while results.len() < 3 {
        let ev = next_event(&rx, deadline);
        if ev.line.starts_with("RESULT ") {
            results.insert((ev.role, ev.rank), parse_result(&ev.line));
        }
    }
    let writer = &results[&("writer", 0)];
    assert_eq!(field(writer, "steps"), STEPS, "writer completed every step: {writer:?}");
    assert_eq!(field(writer, "evictions"), 0, "every reader was found: {writer:?}");
    for rank in 0..2 {
        let reader = &results[&("reader", rank)];
        assert_eq!(field(reader, "steps"), STEPS, "reader {rank} saw every step: {reader:?}");
        assert_eq!(field(reader, "eos_synth"), 0, "reader {rank} got a real EOS: {reader:?}");
    }
}
