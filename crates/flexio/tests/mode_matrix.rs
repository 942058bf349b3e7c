//! The Sync/Async × batching 2×2 matrix over the MxN redistribution
//! pattern: all four mode combinations must deliver bit-identical arrays,
//! differing only in their message accounting (batching collapses data
//! messages; sync mode adds per-pair acknowledgements).

mod common;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use flexio::{StreamHints, WriteMode};

const STEPS: u64 = 3;
const NVARS: u64 = 5;

/// One matrix cell: run 3 writers × 2 readers moving 5 variables for
/// 3 steps; returns (data_msgs, ack_msgs, every array every reader read).
fn run_cell(write_mode: WriteMode, batching: bool) -> (u64, u64, Vec<Vec<Vec<f64>>>) {
    let hints = StreamHints { write_mode, batching, ..StreamHints::default() };
    let (links, arrays) = couple(
        3,
        2,
        hints,
        |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                for v in 0..NVARS {
                    let data: Vec<f64> = (0..4)
                        .map(|i| (v * 1000 + step * 100 + rank as u64 * 4 + i) as f64)
                        .collect();
                    w.write(&format!("v{v}"), block_1d(rank as u64 * 4, data, 12));
                }
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        |mut r, rank| {
            let my_box = BoxSel::new(vec![rank as u64 * 6], vec![6]);
            for v in 0..NVARS {
                r.subscribe(&format!("v{v}"), Selection::GlobalBox(my_box.clone()));
            }
            let mut out = Vec::new();
            while let StepStatus::Step(step) = r.begin_step() {
                for v in 0..NVARS {
                    let val =
                        r.read(&format!("v{v}"), &Selection::GlobalBox(my_box.clone())).unwrap();
                    let VarValue::Block(b) = val else { panic!() };
                    for (i, &x) in b.data.as_f64().iter().enumerate() {
                        let g = rank as u64 * 6 + i as u64;
                        assert_eq!(x, (v * 1000 + step * 100 + g) as f64);
                    }
                    out.push(b.data.as_f64().to_vec());
                }
                r.end_step();
            }
            out
        },
    );
    let snap = links[0].counters.snapshot();
    (snap.data_msgs, snap.ack_msgs, arrays)
}

#[test]
fn sync_async_batching_matrix_is_data_identical() {
    // Writer w owns [4w, 4w+4) of 12; reader r wants [6r, 6r+6). The
    // overlapping (writer, reader) pairs are w0→r0, w1→r0, w1→r1, w2→r1:
    // four data-bearing channels per step.
    const PAIRS: u64 = 4;
    let cells = [
        (WriteMode::Async, false),
        (WriteMode::Async, true),
        (WriteMode::Sync, false),
        (WriteMode::Sync, true),
    ];
    let mut reference: Option<Vec<Vec<Vec<f64>>>> = None;
    for (mode, batching) in cells {
        let (data_msgs, ack_msgs, arrays) = run_cell(mode, batching);

        // Message accounting per cell.
        let expected_data = if batching { PAIRS * STEPS } else { PAIRS * STEPS * NVARS };
        assert_eq!(data_msgs, expected_data, "{mode:?} batching={batching}: data message count");
        let expected_acks = if mode == WriteMode::Sync { PAIRS * STEPS } else { 0 };
        assert_eq!(ack_msgs, expected_acks, "{mode:?} batching={batching}: ack count");

        // Data identical across the whole matrix.
        match &reference {
            None => reference = Some(arrays),
            Some(reference) => assert_eq!(
                reference, &arrays,
                "{mode:?} batching={batching} must deliver the same bytes"
            ),
        }
    }
}
