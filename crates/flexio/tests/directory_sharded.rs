//! Concurrency coverage for the lock-striped [`ShardedDirectory`]: mixed
//! register/lookup/unregister traffic across shards, condvar wakeups
//! under cross-thread registration (no lost wakeups), the per-shard
//! contention counters, and the redesigned `FlexIo::with_directory` API
//! running a real coupling over the sharded backend.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::{reader_core, reader_roster, writer_core, writer_roster};
use flexio::link::LinkState;
use flexio::{DirectoryError, DirectoryService, FlexIo, ShardedDirectory, StreamHints};
use machine::laptop;

fn dummy_link() -> Arc<LinkState> {
    LinkState::for_tests()
}

#[test]
fn concurrent_register_lookup_unregister_stress() {
    // 8 writer threads churn register→unregister cycles on their own
    // names while 8 reader threads hammer lookups on the same names.
    // Names hash onto different stripes, so this is exactly the traffic
    // the striping exists for; the test asserts nothing is lost, nothing
    // double-counted, and the final registry state is exact.
    const THREADS: usize = 8;
    const NAMES_PER_THREAD: usize = 16;
    const CYCLES: usize = 50;

    let dir = Arc::new(ShardedDirectory::striped(8));
    let hits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let wdir = Arc::clone(&dir);
        handles.push(thread::spawn(move || {
            for c in 0..CYCLES {
                for n in 0..NAMES_PER_THREAD {
                    let name = format!("t{t}/s{n}");
                    wdir.register(&name, dummy_link()).unwrap();
                    // Re-registration while live must be refused.
                    assert!(matches!(
                        wdir.register(&name, dummy_link()),
                        Err(DirectoryError::AlreadyRegistered(_))
                    ));
                    if c + 1 < CYCLES {
                        assert!(wdir.unregister(&name), "own registration must be live");
                    }
                }
            }
        }));
        let rdir = Arc::clone(&dir);
        let hits = Arc::clone(&hits);
        handles.push(thread::spawn(move || {
            for _ in 0..CYCLES {
                for n in 0..NAMES_PER_THREAD {
                    let name = format!("t{t}/s{n}");
                    if rdir.try_lookup(&name).is_some() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Exact bookkeeping: every cycle registered once, all but the last
    // unregistered; lookup_count equals the successful try_lookups.
    let total = (THREADS * NAMES_PER_THREAD * CYCLES) as u64;
    assert_eq!(dir.registration_count(), total);
    let unregisters: u64 = dir.shard_snapshots().iter().map(|s| s.unregisters).sum();
    assert_eq!(unregisters, total - (THREADS * NAMES_PER_THREAD) as u64);
    assert_eq!(dir.lookup_count(), hits.load(Ordering::Relaxed));
    // The survivors of the last cycle are all still resolvable.
    for t in 0..THREADS {
        for n in 0..NAMES_PER_THREAD {
            assert!(dir.try_lookup(&format!("t{t}/s{n}")).is_some());
        }
    }
}

#[test]
fn parked_lookups_wake_on_registrations_from_other_threads() {
    // One blocked lookup per name, names spread over every stripe, all
    // registrations issued from other threads after the waiters park.
    // Every waiter must resolve — a lost condvar wakeup would hang one
    // of them until its (generous) timeout and fail the assert.
    const WAITERS: usize = 24;
    let dir = Arc::new(ShardedDirectory::striped(8));
    let mut waiters = Vec::new();
    for n in 0..WAITERS {
        let dir = Arc::clone(&dir);
        waiters
            .push(thread::spawn(move || dir.lookup(&format!("late/{n}"), Duration::from_secs(10))));
    }
    thread::sleep(Duration::from_millis(30));
    let registrars: Vec<_> = (0..4)
        .map(|r| {
            let dir = Arc::clone(&dir);
            thread::spawn(move || {
                for n in (r..WAITERS).step_by(4) {
                    dir.register(&format!("late/{n}"), dummy_link()).unwrap();
                }
            })
        })
        .collect();
    for r in registrars {
        r.join().unwrap();
    }
    for w in waiters {
        assert!(w.join().unwrap().is_ok(), "a parked lookup missed its wakeup");
    }
    assert_eq!(dir.lookup_count(), WAITERS as u64);
}

#[test]
fn single_stripe_contention_is_counted() {
    // All traffic forced onto one stripe: the contended counter must
    // eventually observe try_lock failures. Rounds are repeated until it
    // does so the test asserts the mechanism, not a timing coincidence.
    let dir = Arc::new(ShardedDirectory::striped(1));
    for round in 0..50 {
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let dir = Arc::clone(&dir);
                thread::spawn(move || {
                    for i in 0..500 {
                        let name = format!("r{round}/t{t}/{i}");
                        dir.register(&name, dummy_link()).unwrap();
                        dir.try_lookup(&name);
                        dir.unregister(&name);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        if dir.shard_snapshots()[0].contended > 0 {
            return;
        }
    }
    panic!("8 threads on one stripe never contended its lock");
}

#[test]
fn flexio_coupling_runs_over_the_sharded_backend() {
    // The redesigned connection-management API end to end: FlexIo takes
    // any DirectoryService trait object, and a writer/reader coupling
    // discovers itself through the sharded backend exactly as it did
    // through the single-map one.
    let io = FlexIo::new(laptop(), 4).with_directory(Arc::new(ShardedDirectory::striped(8)));
    let io_r = io.clone();
    let rt = thread::spawn(move || {
        let hints = StreamHints { recv_timeout: Duration::from_secs(2), ..StreamHints::default() };
        io_r.open_reader("sharded", 0, 1, reader_core(0), reader_roster(1), hints)
    });
    thread::sleep(Duration::from_millis(30));
    let _w = io
        .open_writer("sharded", 0, 1, writer_core(0), writer_roster(1), StreamHints::default())
        .expect("writer registers through the sharded backend");
    assert!(rt.join().unwrap().is_ok(), "reader lookup resolves through the sharded backend");
    assert_eq!(io.directory().registration_count(), 1);
    assert_eq!(io.directory().lookup_count(), 1);
}
