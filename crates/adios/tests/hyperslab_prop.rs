//! Property tests on the hyperslab machinery — the geometric core of both
//! file-mode reads and FlexIO's MxN redistribution.

use std::sync::Arc;

use adios::hyperslab::{copy_region, extract_region};
use adios::{ArrayData, BoxSel, DataType, LocalBlock};
use evpath::ffs::le;
use evpath::{Lease, PackedArray};
use proptest::prelude::*;

/// A random 2-D block within an 8×8 global array, with values encoding
/// their global coordinates.
fn arb_block() -> impl Strategy<Value = LocalBlock> {
    (0u64..6, 0u64..6).prop_flat_map(|(ox, oy)| {
        (1u64..=8 - ox, 1u64..=8 - oy).prop_map(move |(cx, cy)| {
            let mut data = Vec::new();
            for r in ox..ox + cx {
                for c in oy..oy + cy {
                    data.push((r * 100 + c) as f64);
                }
            }
            LocalBlock {
                global_shape: vec![8, 8],
                offset: vec![ox, oy],
                count: vec![cx, cy],
                data: ArrayData::F64(data),
            }
            .validated()
        })
    })
}

fn arb_box() -> impl Strategy<Value = BoxSel> {
    (0u64..8, 0u64..8).prop_flat_map(|(ox, oy)| {
        (1u64..=8 - ox, 1u64..=8 - oy)
            .prop_map(move |(cx, cy)| BoxSel::new(vec![ox, oy], vec![cx, cy]))
    })
}

/// A region with a source and a destination block around it, ranks 1–4,
/// block extents at most 6. Per dimension: the region's start and extent,
/// then how far each block sticks out below and above it. The trailing
/// `src_full`/`dst_full` dimensions of a block stick out nowhere, so the
/// blocks are larger than the region, equal to it, or share only trailing
/// dimensions with it — the stride plan folds none, some or all dimensions.
#[derive(Debug)]
struct Geometry {
    region: BoxSel,
    src: BoxSel,
    dst: BoxSel,
    shape: Vec<u64>,
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    let dim = (0u64..3, 1u64..=4, (0u64..=1, 0u64..=1), (0u64..=1, 0u64..=1));
    (1usize..=4, proptest::collection::vec(dim, 4), 0usize..=4, 0usize..=4).prop_map(
        |(rank, dims, src_full, dst_full)| {
            let around =
                |full: usize, pick: fn(&(u64, u64, (u64, u64), (u64, u64))) -> (u64, u64)| {
                    let (mut offset, mut count) = (Vec::new(), Vec::new());
                    for (d, dim) in dims[..rank].iter().enumerate() {
                        let (below, above) = if d + full >= rank { (0, 0) } else { pick(dim) };
                        offset.push(dim.0 + 1 - below);
                        count.push(below + dim.1 + above);
                    }
                    BoxSel::new(offset, count)
                };
            let (src, dst) = (around(src_full, |d| d.2), around(dst_full, |d| d.3));
            let region = around(rank, |_| (0, 0));
            let shape = (0..rank)
                .map(|d| (src.offset[d] + src.count[d]).max(dst.offset[d] + dst.count[d]))
                .collect();
            Geometry { region, src, dst, shape }
        },
    )
}

/// `values` as elements of `dtype` (wrapping into a byte for `U8`).
fn typed(dtype: DataType, values: impl Iterator<Item = u64>) -> ArrayData {
    match dtype {
        DataType::F64 => ArrayData::F64(values.map(|v| v as f64 + 0.5).collect()),
        DataType::U64 => ArrayData::U64(values.map(|v| v << 33 | v).collect()),
        DataType::I64 => ArrayData::I64(values.map(|v| -(v as i64)).collect()),
        DataType::U8 => ArrayData::U8(values.map(|v| v as u8).collect()),
    }
}

/// The same elements as a wire view lying `shift` bytes past an 8-byte
/// boundary of its receive buffer.
fn packed_at(data: &ArrayData, shift: usize) -> ArrayData {
    let wire = match data {
        ArrayData::F64(v) => le::f64s_as_bytes(v).into_owned(),
        ArrayData::U64(v) => le::u64s_as_bytes(v).into_owned(),
        ArrayData::I64(v) => le::i64s_as_bytes(v).into_owned(),
        ArrayData::U8(v) => v.clone(),
        ArrayData::Packed(_) => unreachable!("built from owned data"),
    };
    let mut buf = vec![0u8; wire.len() + 16];
    let at = (buf.as_ptr() as usize).wrapping_neg() % 8 + shift;
    buf[at..at + wire.len()].copy_from_slice(&wire);
    let view = PackedArray::view(
        data.data_type().packed_dtype(),
        Arc::new(Lease::from(buf)),
        at,
        wire.len(),
    );
    ArrayData::Packed(view)
}

/// A block over `extent` whose element at a global coordinate is
/// `value_at(coordinate, its row-major index in shape)`.
fn block_over(
    extent: &BoxSel,
    shape: &[u64],
    dtype: DataType,
    value_at: impl Fn(&[u64], u64) -> u64,
) -> LocalBlock {
    let whole = BoxSel::whole(shape);
    let mut values = Vec::new();
    for (mut at, run) in extent.rows() {
        for _ in 0..run {
            values.push(value_at(&at, whole.linearize(&at)));
            *at.last_mut().expect("rank >= 1") += 1;
        }
    }
    LocalBlock {
        global_shape: shape.to_vec(),
        offset: extent.offset.clone(),
        count: extent.count.clone(),
        data: typed(dtype, values.into_iter()),
    }
    .validated()
}

/// The kernel before the stride plan: one `copy_into` per row of the
/// region, both offsets re-linearized per row.
fn copy_region_by_rows(src: &LocalBlock, dst: &mut LocalBlock, region: &BoxSel) {
    let src_box = BoxSel::new(src.offset.clone(), src.count.clone());
    let dst_box = BoxSel::new(dst.offset.clone(), dst.count.clone());
    for (start, run) in region.rows() {
        let (s, d) = (src_box.linearize(&start) as usize, dst_box.linearize(&start) as usize);
        src.data.copy_into(s, &mut dst.data, d, run as usize);
    }
}

proptest! {
    /// The stride-planned kernel against the row-by-row reference: every
    /// element type, owned sources and packed views at every byte shift,
    /// whatever the plan folds. Cells outside the region keep their values.
    #[test]
    fn stride_plan_matches_the_row_reference(g in arb_geometry()) {
        const OLD: u64 = 7777; // what the destination held, on top of the index
        for dtype in [DataType::F64, DataType::U64, DataType::I64, DataType::U8] {
            let owned = block_over(&g.src, &g.shape, dtype, |_, index| index);
            let before = block_over(&g.dst, &g.shape, dtype, |_, index| index + OLD);
            let mut by_rows = before.clone();
            copy_region_by_rows(&owned, &mut by_rows, &g.region);
            // And without the reference: new inside the region, old outside.
            let by_cell = block_over(&g.dst, &g.shape, dtype, |at, index| {
                let inside = (0..at.len())
                    .all(|d| (g.region.offset[d]..g.region.offset[d] + g.region.count[d]).contains(&at[d]));
                if inside { index } else { index + OLD }
            });
            prop_assert_eq!(&by_rows, &by_cell);
            let chunk_by_cell = block_over(&g.region, &g.shape, dtype, |_, index| index);

            for shift in 0..=8 {
                let mut src = owned.clone();
                if shift < 8 {
                    src.data = packed_at(&owned.data, shift);
                }
                let mut got = before.clone();
                copy_region(&src, &mut got, &g.region);
                prop_assert_eq!(&got, &by_rows);
                let chunk = extract_region(&src, &g.region);
                prop_assert!(!chunk.data.is_packed());
                prop_assert_eq!(&chunk, &chunk_by_cell);
            }
        }
    }

    /// Extracting any overlap region preserves each element's global
    /// coordinate encoding.
    #[test]
    fn extract_preserves_coordinates(block in arb_block(), sel in arb_box()) {
        let have = BoxSel::new(block.offset.clone(), block.count.clone());
        if let Some(region) = have.intersect(&sel) {
            let extracted = extract_region(&block, &region);
            prop_assert_eq!(extracted.num_elements(), region.num_elements());
            let vals = extracted.data.as_f64();
            let mut idx = 0;
            for r in region.offset[0]..region.offset[0] + region.count[0] {
                for c in region.offset[1]..region.offset[1] + region.count[1] {
                    prop_assert_eq!(vals[idx], (r * 100 + c) as f64);
                    idx += 1;
                }
            }
        }
    }

    /// Splitting a block into the pieces that overlap a set of disjoint
    /// reader boxes and copying them into a target reconstructs the
    /// target's covered portion exactly (the MxN invariant).
    #[test]
    fn split_and_reassemble_roundtrip(block in arb_block()) {
        // Readers split the global array into two column bands.
        let readers = [
            BoxSel::new(vec![0, 0], vec![8, 4]),
            BoxSel::new(vec![0, 4], vec![8, 4]),
        ];
        let have = BoxSel::new(block.offset.clone(), block.count.clone());
        // Reassembly target: a copy of the block, zeroed.
        let mut target = LocalBlock {
            global_shape: block.global_shape.clone(),
            offset: block.offset.clone(),
            count: block.count.clone(),
            data: ArrayData::zeros(adios::DataType::F64, block.num_elements() as usize),
        }
        .validated();
        let mut covered = 0u64;
        for reader in &readers {
            if let Some(region) = have.intersect(reader) {
                let piece = extract_region(&block, &region);
                copy_region(&piece, &mut target, &region);
                covered += region.num_elements();
            }
        }
        // The two bands tile the global space: full coverage, exact data.
        prop_assert_eq!(covered, block.num_elements());
        prop_assert_eq!(target.data.as_f64(), block.data.as_f64());
    }

    /// Intersection is commutative, associative-compatible and contained
    /// in both operands.
    #[test]
    fn intersection_laws(a in arb_box(), b in arb_box(), c in arb_box()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(ab) = a.intersect(&b) {
            prop_assert!(ab.num_elements() <= a.num_elements());
            prop_assert!(ab.num_elements() <= b.num_elements());
            // (a∩b)∩c == a∩(b∩c)
            let left = ab.intersect(&c);
            let right = b.intersect(&c).and_then(|bc| a.intersect(&bc));
            prop_assert_eq!(left, right);
        }
    }

    /// Row iteration covers exactly the selected elements.
    #[test]
    fn rows_cover_exactly(sel in arb_box()) {
        let total: u64 = sel.rows().map(|(_, run)| run).sum();
        prop_assert_eq!(total, sel.num_elements());
        // And every run stays in bounds on the last dimension.
        for (start, run) in sel.rows() {
            prop_assert!(start[1] + run <= sel.offset[1] + sel.count[1]);
        }
    }
}
