//! Fault-layer integration: the deterministic fault wrappers composed
//! with each real transport (in-process, shared-memory FastForward queue,
//! simulated RDMA fabric), including concurrent producer/consumer use.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evpath::transport::{inproc_pair, NetTransport, ShmTransport};
use evpath::{BoxedReceiver, BoxedSender, FaultPlan, FaultSpec};
use machine::InterconnectParams;
use netsim::NetSim;

fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    let mut p = FaultPlan::new(seed);
    p.set_default(FaultSpec { drop_per_mille: 200, dup_per_mille: 200, ..Default::default() });
    Arc::new(p)
}

fn send_ordinals(tx: &mut BoxedSender, n: u64) {
    for i in 0..n {
        tx.send(&i.to_le_bytes());
    }
}

fn drain(rx: &mut BoxedReceiver) -> Vec<u64> {
    let mut out = Vec::new();
    while let Some(m) = rx.try_recv() {
        out.push(u64::from_le_bytes(m.try_into().expect("8-byte ordinal")));
    }
    out
}

#[test]
fn fault_schedule_is_transport_independent() {
    // The wrapper draws decisions from (seed, label, ordinal) only — so
    // the exact same messages survive whether the bytes ride an in-process
    // channel or the shared-memory queue.
    let run = |make: fn() -> (BoxedSender, BoxedReceiver)| {
        let plan = chaos_plan(97);
        let (tx, mut rx) = make();
        let mut tx = plan.wrap_sender("data:0->0", tx);
        send_ordinals(&mut tx, 100);
        drop(tx);
        (drain(&mut rx), plan.counters().snapshot())
    };
    let (inproc, c_inproc) = run(inproc_pair);
    // A deep queue so the single-threaded sender never blocks on a full
    // ring (the shm queue backpressures by design).
    let (shm, c_shm) = run(|| ShmTransport::pair(256, 64));
    assert_eq!(inproc, shm, "identical survivors on both transports");
    assert_eq!(c_inproc, c_shm, "identical fault counts on both transports");
    assert!(c_inproc.dropped > 0 && c_inproc.duplicated > 0, "chaos actually fired: {c_inproc:?}");
}

#[test]
fn concurrent_chaos_over_bounded_shm_queue_loses_only_dropped_messages() {
    // A real producer/consumer pair over the bounded (64-entry) queue:
    // the receiver must end up with exactly `sent − dropped + duplicated`
    // messages, every one of them a message that was actually sent.
    const N: u64 = 500;
    let plan = chaos_plan(12345);
    let (tx, mut rx) = ShmTransport::pair(64, 64);
    let mut tx = plan.wrap_sender("data:0->1", tx);
    let sender = thread::spawn(move || send_ordinals(&mut tx, N));
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        got.extend(drain(&mut rx));
        if sender.is_finished() {
            got.extend(drain(&mut rx));
            break;
        }
        assert!(Instant::now() < deadline, "sender wedged on the bounded queue");
        thread::yield_now();
    }
    sender.join().unwrap();
    got.extend(drain(&mut rx));
    let c = plan.counters().snapshot();
    assert_eq!(got.len() as u64, N - c.dropped + c.duplicated);
    assert!(c.dropped > 0 && c.duplicated > 0, "chaos fired");
    assert!(got.iter().all(|&o| o < N), "nothing invented");
}

#[test]
fn faults_compose_with_the_rdma_fabric() {
    // Cross-node channel on the simulated interconnect, faults on top.
    let net = NetSim::new(InterconnectParams::gemini(), 2);
    let plan = chaos_plan(7);
    let (tx, mut rx) = NetTransport::pair(&net, 0, 1);
    let mut tx = plan.wrap_sender("data:0->1", tx);
    send_ordinals(&mut tx, 100);
    drop(tx);
    let got = drain(&mut rx);
    let c = plan.counters().snapshot();
    assert_eq!(got.len() as u64, 100 - c.dropped + c.duplicated);
    assert!(c.dropped > 0, "drops scheduled for this seed must fire over RDMA too");
}

#[test]
fn deaf_receiver_swallows_the_tail_over_shm() {
    let mut p = FaultPlan::new(9);
    p.set("data", FaultSpec { crash_receiver_after: Some(3), ..Default::default() });
    let plan = Arc::new(p);
    let (mut tx, rx) = ShmTransport::pair(16, 64);
    let mut rx = plan.wrap_receiver("data:0->0", rx);
    send_ordinals(&mut tx, 10);
    let mut alive = Vec::new();
    while let Some(m) = rx.try_recv() {
        alive.push(u64::from_le_bytes(m.try_into().unwrap()));
    }
    assert_eq!(alive, vec![0, 1, 2], "exactly the pre-crash prefix is delivered");
    // Keep polling: the corpse keeps consuming so the queue drains anyway.
    for _ in 0..20 {
        assert!(rx.try_recv().is_none());
    }
    assert_eq!(plan.counters().snapshot().deaf_recvs, 7, "the tail is counted as deaf receives");
}
