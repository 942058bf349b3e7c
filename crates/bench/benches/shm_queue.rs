//! **MICRO-SHM** — throughput of the intra-node transport (paper §II.D):
//! the FastForward SPSC queue across payload sizes, the pooled path (one
//! copy into the pool, the buffer leased to the consumer), and the naive
//! locked queue as the baseline the lock-free design replaces.

use std::thread;

use bench::naive::naive_queue;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shm::channel::shm_channel;
use shm::spsc::spsc_queue;

const MSGS: u64 = 10_000;

fn bench_spsc_inline(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc_inline");
    for size in [16usize, 64, 256] {
        g.throughput(Throughput::Bytes(MSGS * size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let (mut tx, mut rx) = spsc_queue(256, 512);
                let payload = vec![7u8; size];
                let t = thread::spawn(move || {
                    for _ in 0..MSGS {
                        tx.push_with(size, |e| e.copy_from_slice(&payload)).unwrap();
                    }
                });
                let mut buf = [0u8; 512];
                for _ in 0..MSGS {
                    while rx.try_pop_with(|msg| buf[..msg.len()].copy_from_slice(msg)).is_none() {
                        std::hint::spin_loop();
                    }
                }
                t.join().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_locked_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("locked_queue_baseline");
    for size in [16usize, 256] {
        g.throughput(Throughput::Bytes(MSGS * size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let (tx, rx) = naive_queue(256);
                let payload = vec![7u8; size];
                let t = thread::spawn(move || {
                    for _ in 0..MSGS {
                        tx.push(&payload);
                    }
                });
                for _ in 0..MSGS {
                    rx.pop();
                }
                t.join().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_large_message_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("large_message_paths");
    let size = 1 << 20; // 1 MiB
    let n = 64u64;
    g.throughput(Throughput::Bytes(n * size as u64));
    g.bench_function("pooled_leased", |b| {
        b.iter(|| {
            let (mut tx, mut rx) = shm_channel(64, 256);
            let payload = vec![3u8; size];
            let t = thread::spawn(move || {
                for _ in 0..n {
                    tx.send_copy(&payload);
                }
            });
            for _ in 0..n {
                rx.recv().unwrap();
            }
            t.join().unwrap();
        });
    });
    g.finish();
}

criterion_group!(benches, bench_spsc_inline, bench_locked_baseline, bench_large_message_paths);
criterion_main!(benches);
