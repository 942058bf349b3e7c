//! **Ablation** — cache-line padding of queue entries (paper §II.D:
//! "entries in data queues are carefully aligned and padded to make sure
//! they do not share cache lines, so as to reduce false sharing"). The
//! unpadded variant packs multiple entries per line, so producer and
//! consumer ping-pong ownership of shared lines.

use bench::spsc_unpadded::{spsc_queue_unpadded, UNPADDED_PAYLOAD};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use shm::spsc::spsc_queue;

const MSGS: u64 = 50_000;

fn bench_padding(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc_padding_ablation");
    g.throughput(Throughput::Elements(MSGS));

    g.bench_function("padded (FlexIO design)", |b| {
        b.iter(|| {
            // Same 24-byte payloads as the unpadded variant.
            let (mut tx, mut rx) = spsc_queue(256, UNPADDED_PAYLOAD);
            let payload = [1u8; UNPADDED_PAYLOAD];
            let t = std::thread::spawn(move || {
                for _ in 0..MSGS {
                    tx.push(&payload).unwrap();
                }
            });
            let mut buf = [0u8; UNPADDED_PAYLOAD];
            for _ in 0..MSGS {
                while rx.try_pop_into(&mut buf).is_none() {
                    std::hint::spin_loop();
                }
            }
            t.join().unwrap();
        });
    });

    g.bench_function("unpadded (entries share cache lines)", |b| {
        b.iter(|| {
            let (mut tx, mut rx) = spsc_queue_unpadded(256);
            let payload = [1u8; UNPADDED_PAYLOAD];
            let t = std::thread::spawn(move || {
                for _ in 0..MSGS {
                    tx.push(&payload);
                }
            });
            let mut buf = [0u8; UNPADDED_PAYLOAD];
            for _ in 0..MSGS {
                rx.pop_into(&mut buf);
            }
            t.join().unwrap();
        });
    });

    g.finish();
}

criterion_group!(benches, bench_padding);
criterion_main!(benches);
