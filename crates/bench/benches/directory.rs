//! **Directory service** — lookup throughput of the lock-striped
//! registry swept over shard count under fixed client concurrency, plus
//! the gossip-replicated cluster's lookup service rate and convergence
//! lag swept over node count.
//!
//! Two sharded workloads, because the two contention pathologies striping
//! fixes are distinct:
//!
//! * `sharded` — resolved lookups hammering the stripe mutexes. This is
//!   the lock-serialization axis; it needs real cores to show (the
//!   stripes only help when clients can actually run in parallel), so on
//!   a single-core host it reads flat.
//! * `discovery` — the paper's §II.C.1 pattern: reader coordinators park
//!   in blocking lookups until the writer registers. This is the condvar
//!   herd axis: one stripe means every registration's `notify_all` wakes
//!   *every* parked lookup in the registry (spurious wakeups, context
//!   switches); 8 stripes wake only the name's own stripe. Herd cost is
//!   pure overhead, so this scales with shard count even on one core.
//!
//! The replicated sweep measures what replication costs: lookups are
//! still served from one node's local store (so they stay fast), and
//! `converge_ms` is the anti-entropy lag for a registration to become
//! visible on every node.
//!
//! Results land in `BENCH_directory.json` at the repo root and the
//! summary JSON is printed to stdout (one line, machine-parsable).
//!
//! Run with `cargo bench --bench directory`. Set `DIR_QUICK=1` to shrink
//! op counts for smoke runs.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use flexio::link::LinkState;
use flexio::{DirectoryCluster, DirectoryService, ShardedDirectory};

const THREADS: usize = 8;
const NAMES: usize = 1024;

struct RunResult {
    mode: &'static str,
    shards: usize,
    nodes: usize,
    ops: u64,
    elapsed_s: f64,
    converge_ms: f64,
}

impl RunResult {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

fn names() -> Vec<String> {
    (0..NAMES).map(|i| format!("stream/{i}")).collect()
}

/// 8 client threads hammering lookups over a pre-registered name set.
fn run_sharded(shards: usize, ops_per_thread: u64) -> RunResult {
    let dir = Arc::new(ShardedDirectory::striped(shards));
    let names = Arc::new(names());
    for name in names.iter() {
        dir.register(name, LinkState::for_tests()).expect("register");
    }
    let start = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let dir = Arc::clone(&dir);
            let names = Arc::clone(&names);
            thread::spawn(move || {
                for i in 0..ops_per_thread {
                    let name = &names[(t as u64 * 7919 + i) as usize % NAMES];
                    assert!(dir.try_lookup(name).is_some());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("bench thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let ops = THREADS as u64 * ops_per_thread;
    assert_eq!(dir.lookup_count(), ops);
    RunResult { mode: "sharded", shards, nodes: 1, ops, elapsed_s, converge_ms: 0.0 }
}

/// Discovery workload: 8 client threads — 1 registrar and 7 reader
/// coordinators. Each reader blocking-looks-up its own name sequence in
/// order; the registrar round-robins one name per reader, so every
/// reader is almost always parked on its shard condvar waiting for its
/// next name. Throughput = resolved blocking lookups/s. The herd cost is
/// the variable: each registration's `notify_all` wakes every parked
/// reader sharing the stripe — all 7 with one stripe, ~1 with eight.
fn run_discovery(shards: usize, names_per_reader: u64) -> RunResult {
    const READERS: usize = THREADS - 1;
    let dir = Arc::new(ShardedDirectory::striped(shards));
    let start = Instant::now();
    let mut workers = Vec::new();
    let registrar = Arc::clone(&dir);
    workers.push(thread::spawn(move || {
        for i in 0..names_per_reader {
            for r in 0..READERS {
                registrar
                    .register(&format!("reader{r}/{i}"), LinkState::for_tests())
                    .expect("register");
                // Registrations arrive one at a time over a transport in a
                // real deployment; without this the single run queue lets
                // the registrar batch a whole timeslice of registrations
                // and the readers never park at all.
                thread::yield_now();
            }
        }
    }));
    for r in 0..READERS {
        let reader = Arc::clone(&dir);
        workers.push(thread::spawn(move || {
            for i in 0..names_per_reader {
                reader
                    .lookup(&format!("reader{r}/{i}"), Duration::from_secs(30))
                    .expect("registrar delivers within the budget");
            }
        }));
    }
    for w in workers {
        w.join().expect("bench thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let ops = READERS as u64 * names_per_reader;
    assert_eq!(dir.lookup_count(), ops);
    RunResult { mode: "discovery", shards, nodes: 1, ops, elapsed_s, converge_ms: 0.0 }
}

/// Lookup service rate through a cluster handle plus the mean time for a
/// fresh registration to become visible on every node.
fn run_replicated(node_count: usize, ops_per_thread: u64, probes: usize) -> RunResult {
    let cluster = DirectoryCluster::new(node_count, 8, Duration::from_millis(1), None);
    let handle = cluster.spawn_driver();
    let names = Arc::new(names());
    for name in names.iter() {
        handle.register(name, LinkState::for_tests()).expect("register");
    }
    // Convergence lag: register a fresh name, stamp when every node's
    // local store serves it.
    let mut converge_total = Duration::ZERO;
    for p in 0..probes {
        let name = format!("probe/{p}");
        let t0 = Instant::now();
        handle.register(&name, LinkState::for_tests()).expect("register probe");
        while !(0..node_count).all(|i| cluster.node(i).store().try_lookup(&name).is_some()) {
            std::hint::spin_loop();
        }
        converge_total += t0.elapsed();
    }
    let start = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let dir = handle.clone();
            let names = Arc::clone(&names);
            thread::spawn(move || {
                for i in 0..ops_per_thread {
                    let name = &names[(t as u64 * 7919 + i) as usize % NAMES];
                    assert!(dir.try_lookup(name).is_some());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("bench thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    RunResult {
        mode: "replicated",
        shards: 8,
        nodes: node_count,
        ops: THREADS as u64 * ops_per_thread,
        elapsed_s,
        converge_ms: converge_total.as_secs_f64() * 1000.0 / probes as f64,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("directory: skipped under test harness");
        return;
    }
    let quick = std::env::var("DIR_QUICK").is_ok();
    let ops_per_thread: u64 = if quick { 20_000 } else { 200_000 };
    let probes = if quick { 8 } else { 32 };

    let discovery_names: u64 = if quick { 2_000 } else { 10_000 };

    let mut results = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let r = run_sharded(shards, ops_per_thread);
        eprintln!(
            "directory: sharded    {:2} shards  {THREADS} threads  {:12.0} lookups/s",
            r.shards,
            r.ops_per_s()
        );
        results.push(r);
    }
    for shards in [1usize, 2, 4, 8] {
        let r = run_discovery(shards, discovery_names);
        eprintln!(
            "directory: discovery  {:2} shards  {THREADS} threads  {:12.0} lookups/s",
            r.shards,
            r.ops_per_s()
        );
        results.push(r);
    }
    for nodes in [1usize, 2, 3] {
        let r = run_replicated(nodes, ops_per_thread, probes);
        eprintln!(
            "directory: replicated {:2} nodes   {THREADS} threads  {:12.0} lookups/s  converge {:.2} ms",
            r.nodes,
            r.ops_per_s(),
            r.converge_ms
        );
        results.push(r);
    }

    let lookup_speedup = results[3].ops_per_s() / results[0].ops_per_s();
    let discovery_speedup = results[7].ops_per_s() / results[4].ops_per_s();
    eprintln!(
        "directory: 8-shard speedup over 1 shard — lookups {lookup_speedup:.2}x, \
         discovery {discovery_speedup:.2}x"
    );

    let mut rep = bench::report::Report::new("directory")
        .u64("names", NAMES as u64)
        .f64("lookup_speedup_8shard", lookup_speedup, 3)
        .f64("discovery_speedup_8shard", discovery_speedup, 3)
        .f64("speedup_8shard", lookup_speedup.max(discovery_speedup), 3);
    for r in &results {
        rep.push(
            bench::report::Obj::new()
                .str("mode", r.mode)
                .u64("shards", r.shards as u64)
                .u64("nodes", r.nodes as u64)
                .u64("threads", THREADS as u64)
                .u64("ops", r.ops)
                .f64("elapsed_s", r.elapsed_s, 6)
                .f64("ops_per_s", r.ops_per_s(), 3)
                .f64("converge_ms", r.converge_ms, 4),
        );
    }
    rep.write();
}
