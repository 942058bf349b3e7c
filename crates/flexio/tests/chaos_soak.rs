//! Time-boxed chaos soak: `FLEXIO_SOAK_SECS=<n>` turns this no-op test
//! into an n-second loop of faulted couplings, sweeping a fresh fault seed
//! every iteration. Each iteration is a *multi-stream* round: two
//! couplings run concurrently, one on the shared-memory transport and one
//! on real TCP sockets (which stream gets which transport alternates, so
//! both seeds of a round are soaked on both). Any seed that loses data,
//! wedges a handshake or panics an engine fails the run — this is the
//! long-tail search the fixed 20-seed sweep in `scripts/verify.sh` cannot
//! afford on every invocation. Unset, the test returns immediately so the
//! default suite stays fast.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use evpath::{FaultPlan, FaultSpec};
use flexio::{CachingLevel, StreamHints, Transport};

/// One faulted coupling: 2 writers × 1 reader × 2 steps under 50%
/// duplicate + 50% reorder on the data channels; the reader asserts every
/// element it assembles.
fn soak_once(seed: u64, transport: Transport) {
    const STEPS: u64 = 2;
    let mut plan = FaultPlan::new(seed);
    plan.set(
        "data",
        FaultSpec { dup_per_mille: 500, reorder_per_mille: 500, ..Default::default() },
    );
    let hints = StreamHints {
        caching: CachingLevel::CachingAll,
        faults: Some(Arc::new(plan)),
        transport,
        ..StreamHints::default()
    };
    let (_, steps) = couple(
        2,
        1,
        hints,
        |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..4).map(|i| (step * 100 + rank as u64 * 4 + i) as f64).collect();
                w.write("field", block_1d(rank as u64 * 4, data, 8));
                w.end_step();
            }
            w.close();
        },
        move |mut r, _| {
            let whole = BoxSel::whole(&[8]);
            r.subscribe("field", Selection::GlobalBox(whole.clone()));
            let mut seen = 0;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("field", &Selection::GlobalBox(whole.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        for (g, &x) in b.data.as_f64().iter().enumerate() {
                            assert_eq!(
                                x,
                                (step * 100 + g as u64) as f64,
                                "seed {seed} {transport:?} step {step} idx {g}"
                            );
                        }
                        seen += 1;
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            seen
        },
    );
    assert_eq!(steps, vec![STEPS as usize], "seed {seed} {transport:?} lost steps");
}

#[test]
fn chaos_soak() {
    let Some(secs) = std::env::var("FLEXIO_SOAK_SECS").ok().and_then(|s| s.parse::<u64>().ok())
    else {
        eprintln!("chaos_soak: FLEXIO_SOAK_SECS unset, skipping");
        return;
    };
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut iterations = 0u64;
    while Instant::now() < deadline {
        let seed = 0x50A4 ^ iterations.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Two streams in flight at once, one per transport; which stream
        // rides which swaps every iteration.
        let (ta, tb) = if iterations.is_multiple_of(2) {
            (Transport::Shm, Transport::Tcp)
        } else {
            (Transport::Tcp, Transport::Shm)
        };
        let a = std::thread::spawn(move || soak_once(seed, ta));
        let b = std::thread::spawn(move || soak_once(seed ^ 0x5EED, tb));
        a.join().expect("shm-or-tcp stream A survived");
        b.join().expect("shm-or-tcp stream B survived");
        iterations += 1;
    }
    assert!(iterations > 0, "soak budget too small to run even one coupling");
    eprintln!("chaos_soak: {iterations} multi-stream faulted rounds survived in {secs}s");
}
