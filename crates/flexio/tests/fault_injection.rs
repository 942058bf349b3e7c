//! Fault-injection integration tests: a deterministic fault plan on the
//! stream's data channels must be healed by the sequence-framing layer
//! (duplicates discarded, reorders re-sorted) and absorbed by the
//! timeout-and-retry scheme (delays), with the analytics still reading
//! bit-identical arrays.

mod common;

use std::sync::Arc;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use evpath::{FaultPlan, FaultSpec};
use flexio::{CachingLevel, StreamHints};

#[test]
fn duplicated_and_reordered_data_is_healed_end_to_end() {
    // The Fig. 3 MxN pattern under a hostile transport: 40% of data
    // messages are duplicated and 40% held back and swapped. CACHING_ALL +
    // async writes keep the writer free-running, so a chunk held back by a
    // reorder fault is always flushed by the next step's send (or the
    // writer's close) rather than deadlocking the handshake.
    const STEPS: u64 = 3;
    let mut plan = FaultPlan::new(21);
    plan.set(
        "data",
        FaultSpec { dup_per_mille: 400, reorder_per_mille: 400, ..Default::default() },
    );
    let plan = Arc::new(plan);
    let hints = StreamHints {
        caching: CachingLevel::CachingAll,
        faults: Some(Arc::clone(&plan)),
        ..StreamHints::default()
    };

    let (links, reader_steps) = couple(
        3,
        2,
        hints,
        |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..4).map(|i| (step * 100 + rank as u64 * 4 + i) as f64).collect();
                w.write("field", block_1d(rank as u64 * 4, data, 12));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, rank| {
            let my_box = BoxSel::new(vec![rank as u64 * 6], vec![6]);
            r.subscribe("field", Selection::GlobalBox(my_box.clone()));
            let mut steps = 0;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("field", &Selection::GlobalBox(my_box.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        for (i, &x) in b.data.as_f64().iter().enumerate() {
                            let g = rank as u64 * 6 + i as u64;
                            assert_eq!(x, (step * 100 + g) as f64, "step {step} idx {g}");
                        }
                        steps += 1;
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            steps
        },
    );

    // Every reader saw every step with correct data despite the faults.
    assert_eq!(reader_steps, vec![STEPS as usize, STEPS as usize]);

    // The schedule actually fired (seed 21 injects both fault kinds over
    // the 12 data messages of this run — deterministic, not a probability).
    let faults = plan.counters().snapshot();
    let (duplicated, reordered) = (faults.duplicated, faults.reordered);
    assert!(duplicated > 0, "plan injected no duplicates: {duplicated}");
    assert!(reordered > 0, "plan injected no reorders: {reordered}");

    // ... and the healing layer observed and repaired it. Exact equality
    // is too strong end-to-end: a duplicate (or Drop-flushed held message)
    // of a channel's *final* chunk can land after the reader took its last
    // step and stopped polling that channel, so the healed counts are
    // bounded by the injected counts, not equal to them.
    let c = links[0].counters.snapshot();
    let (dup_msgs, reorder_healed) = (c.dup_msgs, c.reorder_healed);
    assert!(dup_msgs > 0 && dup_msgs <= duplicated, "{dup_msgs} of {duplicated} dups discarded");
    assert!(
        reorder_healed > 0 && reorder_healed <= reordered,
        "{reorder_healed} of {reordered} held messages re-sorted on arrival"
    );
    assert_eq!(c.drops_observed, 0, "nothing was dropped, nothing may be written off");
    assert_eq!((c.eos_synthesized, c.evictions), (0, 0), "no crash machinery involved");
}

#[test]
fn delayed_data_is_absorbed_by_retry_with_backoff() {
    // Every data send stalls 300 ms; the reader's receive budget is
    // 30 ms × (1+2+4+8+8) ≈ 690 ms, so each step is saved by the retry
    // loop — observable in the retries counter — and no data is lost.
    const STEPS: u64 = 2;
    let mut plan = FaultPlan::new(5);
    plan.set(
        "data",
        FaultSpec {
            delay_per_mille: 1000,
            delay: std::time::Duration::from_millis(300),
            ..Default::default()
        },
    );
    let plan = Arc::new(plan);
    let hints = StreamHints {
        recv_timeout: std::time::Duration::from_millis(30),
        retries: 4,
        faults: Some(Arc::clone(&plan)),
        ..StreamHints::default()
    };

    let (links, sums) = couple(
        1,
        1,
        hints,
        |mut w, _| {
            for step in 0..STEPS {
                w.begin_step(step);
                w.write("v", block_1d(0, vec![step as f64; 4], 4));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, _| {
            r.subscribe("v", Selection::GlobalBox(BoxSel::new(vec![0], vec![4])));
            let mut sums = Vec::new();
            while let StepStatus::Step(step) = r.begin_step() {
                let v = r.read("v", &Selection::GlobalBox(BoxSel::new(vec![0], vec![4]))).unwrap();
                let VarValue::Block(b) = v else { panic!() };
                assert_eq!(b.data.as_f64(), &[step as f64; 4]);
                sums.push(b.data.as_f64().iter().sum::<f64>());
                r.end_step();
            }
            sums.len()
        },
    );

    assert_eq!(sums, vec![STEPS as usize]);
    assert_eq!(
        plan.counters().snapshot().delayed,
        STEPS,
        "every data message must have been delayed"
    );
    let retries = links[0].counters.snapshot().retries;
    assert!(retries >= 2, "300 ms stalls against a 30 ms timeout must retry: {retries}");
}
