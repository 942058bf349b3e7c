//! Property tests on the MxN transfer planner: for arbitrary writer
//! decompositions and reader selections, the plan moves every needed
//! element exactly once and both sides compute identical expectations.

use adios::{ArrayData, BoxSel, LocalBlock, Selection, VarValue};
use flexio::redistribute::{
    expected_messages, extract_chunk, plan, BoxAssembler, Subscription, VarMeta,
};
use proptest::prelude::*;

const GLOBAL: u64 = 24;

/// A random contiguous 1-D decomposition of [0, GLOBAL) into `n` blocks.
fn arb_decomposition(n: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(1u64..=4, n - 1).prop_map(move |weights| {
        // Split points from cumulative weights, normalized to GLOBAL.
        let total: u64 = weights.iter().sum::<u64>() + 1;
        let mut cuts: Vec<u64> = weights
            .iter()
            .scan(0u64, |acc, w| {
                *acc += w;
                Some(*acc * GLOBAL / total)
            })
            .collect();
        cuts.dedup();
        let mut blocks = Vec::new();
        let mut prev = 0;
        for cut in cuts.into_iter().chain(std::iter::once(GLOBAL)) {
            if cut > prev {
                blocks.push((prev, cut - prev));
                prev = cut;
            }
        }
        blocks
    })
}

fn arb_reader_boxes(n: usize) -> impl Strategy<Value = Vec<BoxSel>> {
    proptest::collection::vec((0u64..GLOBAL, 1u64..=GLOBAL), n).prop_map(|raw| {
        raw.into_iter().map(|(o, c)| BoxSel::new(vec![o], vec![c.min(GLOBAL - o)])).collect()
    })
}

fn writer_blocks(decomp: &[(u64, u64)]) -> Vec<LocalBlock> {
    decomp
        .iter()
        .map(|&(offset, count)| {
            LocalBlock {
                global_shape: vec![GLOBAL],
                offset: vec![offset],
                count: vec![count],
                data: ArrayData::F64((offset..offset + count).map(|g| g as f64).collect()),
            }
            .validated()
        })
        .collect()
}

proptest! {
    /// Every element a reader selected arrives exactly once, with the
    /// right value, for arbitrary writer/reader decompositions.
    #[test]
    fn plan_covers_selections_exactly_once(
        decomp in arb_decomposition(4),
        boxes in arb_reader_boxes(3),
    ) {
        let blocks = writer_blocks(&decomp);
        let values: Vec<VarValue> = blocks.iter().map(|b| VarValue::Block(b.clone())).collect();
        let dists: Vec<Vec<VarMeta>> = values.iter().map(|v| vec![VarMeta::of("v", v)]).collect();
        let sels: Vec<Vec<Subscription>> = boxes
            .iter()
            .map(|b| vec![Subscription { var: "v".into(), sel: Selection::GlobalBox(b.clone()) }])
            .collect();
        let p = plan(&dists, &sels);
        for (r, want) in boxes.iter().enumerate() {
            let mut asm = BoxAssembler::new(want, &blocks[0]);
            for (w, value) in values.iter().enumerate() {
                for cp in &p[w][r] {
                    let chunk = extract_chunk(value, cp);
                    let VarValue::Block(chunk) = chunk.as_ref() else { unreachable!() };
                    asm.add(chunk);
                }
            }
            // Exactly-once delivery: received element count equals the
            // selection size (no gaps, no duplicates).
            prop_assert_eq!(asm.received_elements(), want.num_elements());
            let out = asm.finish();
            for (i, &v) in out.data.as_f64().iter().enumerate() {
                prop_assert_eq!(v, (want.offset[0] + i as u64) as f64);
            }
        }
    }

    /// Writer-side and reader-side message expectations agree for any
    /// batching setting (the invariant that lets both sides run the
    /// planner independently with no per-chunk negotiation).
    #[test]
    fn both_sides_expect_the_same_messages(
        decomp in arb_decomposition(5),
        boxes in arb_reader_boxes(2),
        batching in any::<bool>(),
    ) {
        let blocks = writer_blocks(&decomp);
        let dists: Vec<Vec<VarMeta>> = blocks
            .iter()
            .map(|b| vec![VarMeta::of("v", &VarValue::Block(b.clone()))])
            .collect();
        let sels: Vec<Vec<Subscription>> = boxes
            .iter()
            .map(|b| vec![Subscription { var: "v".into(), sel: Selection::GlobalBox(b.clone()) }])
            .collect();
        // Both sides run the same deterministic function — assert the
        // planner itself is deterministic and consistent per pair.
        let p1 = plan(&dists, &sels);
        let p2 = plan(&dists, &sels);
        prop_assert_eq!(&p1, &p2);
        for w in 0..dists.len() {
            for r in 0..sels.len() {
                let writer_sends = expected_messages(&p1[w][r], batching);
                let reader_expects = expected_messages(&p2[w][r], batching);
                prop_assert_eq!(writer_sends, reader_expects);
            }
        }
    }

    /// Chunks planned for different readers of non-overlapping boxes are
    /// disjoint per writer (no data amplification beyond selection overlap).
    #[test]
    fn disjoint_readers_get_disjoint_chunks(decomp in arb_decomposition(3)) {
        let blocks = writer_blocks(&decomp);
        let dists: Vec<Vec<VarMeta>> = blocks
            .iter()
            .map(|b| vec![VarMeta::of("v", &VarValue::Block(b.clone()))])
            .collect();
        let half = GLOBAL / 2;
        let sels: Vec<Vec<Subscription>> = [
            BoxSel::new(vec![0], vec![half]),
            BoxSel::new(vec![half], vec![GLOBAL - half]),
        ]
        .iter()
        .map(|b| vec![Subscription { var: "v".into(), sel: Selection::GlobalBox(b.clone()) }])
        .collect();
        let p = plan(&dists, &sels);
        let mut moved = 0u64;
        for row in &p {
            for chunks in row {
                for c in chunks {
                    moved += c.region.as_ref().map_or(0, |r| r.num_elements());
                }
            }
        }
        // Disjoint covering readers: every element moves exactly once.
        prop_assert_eq!(moved, GLOBAL);
    }
}
