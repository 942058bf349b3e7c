//! N-dimensional box selections: intersection and strided copies.
//!
//! This module is the geometric heart of the paper's Fig. 3: when a 2-D
//! array distributed over 9 simulation processes is read by 2 analytics
//! processes with a different decomposition, each sender computes the
//! overlap of its block with each reader's requested box and copies the
//! overlapping *strides*. [`BoxAssembler`] is the one place a box is
//! laid together from such overlaps, for every engine's
//! [`crate::select`].

use crate::var::{ArrayData, LocalBlock};

/// An axis-aligned box in global index space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoxSel {
    /// Starting global index per dimension.
    pub offset: Vec<u64>,
    /// Extent per dimension.
    pub count: Vec<u64>,
}

impl BoxSel {
    /// Construct (offsets and counts must have equal rank).
    pub fn new(offset: Vec<u64>, count: Vec<u64>) -> BoxSel {
        assert_eq!(offset.len(), count.len(), "rank mismatch");
        BoxSel { offset, count }
    }

    /// The whole array of the given shape.
    pub fn whole(shape: &[u64]) -> BoxSel {
        BoxSel { offset: vec![0; shape.len()], count: shape.to_vec() }
    }

    /// Dimensionality.
    pub fn rank(&self) -> usize {
        self.offset.len()
    }

    /// Number of elements selected.
    pub fn num_elements(&self) -> u64 {
        self.count.iter().product()
    }

    /// True if any dimension has zero extent.
    pub fn is_empty(&self) -> bool {
        self.count.contains(&0)
    }

    /// Intersection with another box; `None` when disjoint (or empty).
    pub fn intersect(&self, other: &BoxSel) -> Option<BoxSel> {
        assert_eq!(self.rank(), other.rank(), "rank mismatch");
        let mut offset = Vec::with_capacity(self.rank());
        let mut count = Vec::with_capacity(self.rank());
        for d in 0..self.rank() {
            let lo = self.offset[d].max(other.offset[d]);
            let hi = (self.offset[d] + self.count[d]).min(other.offset[d] + other.count[d]);
            if hi <= lo {
                return None;
            }
            offset.push(lo);
            count.push(hi - lo);
        }
        Some(BoxSel { offset, count })
    }

    /// Row-major linear index of a global coordinate *within this box*.
    /// `coord` must lie inside the box.
    pub fn linearize(&self, coord: &[u64]) -> u64 {
        debug_assert_eq!(coord.len(), self.rank());
        let mut idx = 0u64;
        for d in 0..self.rank() {
            debug_assert!(coord[d] >= self.offset[d] && coord[d] < self.offset[d] + self.count[d]);
            idx = idx * self.count[d] + (coord[d] - self.offset[d]);
        }
        idx
    }

    /// Iterate the box's contiguous row-major runs: yields
    /// `(start_coord, run_len)` where each run spans the last dimension.
    /// Rank-0 boxes yield a single run of length 1. Allocates per run: this
    /// is the reference [`copy_region`] is tested against, not its kernel.
    pub fn rows(&self) -> RowIter<'_> {
        RowIter { sel: self, cursor: Some(self.offset.clone()), done: self.is_empty() }
    }
}

/// Iterator over contiguous last-dimension runs of a box.
pub struct RowIter<'a> {
    sel: &'a BoxSel,
    cursor: Option<Vec<u64>>,
    done: bool,
}

impl Iterator for RowIter<'_> {
    type Item = (Vec<u64>, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let sel = self.sel;
        if sel.rank() == 0 {
            self.done = true;
            return Some((Vec::new(), 1));
        }
        let current = self.cursor.clone()?;
        let run = sel.count[sel.rank() - 1];
        // Advance all but the last dimension, odometer-style.
        let mut next = current.clone();
        let mut d = sel.rank().wrapping_sub(2);
        loop {
            if sel.rank() == 1 {
                self.done = true;
                break;
            }
            next[d] += 1;
            if next[d] < sel.offset[d] + sel.count[d] {
                break;
            }
            next[d] = sel.offset[d];
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
        }
        if !self.done {
            self.cursor = Some(next);
        }
        Some((current, run))
    }
}

/// One axis of a [`StridePlan`]: `extent` positions, each an element
/// step further into the source and the destination block.
struct Axis {
    extent: usize,
    src_step: usize,
    dst_step: usize,
    /// Odometer position, used only while walking the outer axes.
    pos: usize,
}

/// How a region is laid out in two row-major blocks at once, computed once
/// per copy: the element offset of the region's first cell in each block
/// and, innermost first, the axes to walk. A dimension that is full in
/// *both* blocks is contiguous with its slower neighbour in both, so it
/// folds into that neighbour's axis; `axes[0]` has step 1 in both blocks
/// and is therefore the contiguous run.
pub(crate) struct StridePlan {
    src_start: usize,
    dst_start: usize,
    /// Innermost first; empty only for an empty region.
    axes: Vec<Axis>,
}

impl StridePlan {
    /// Plan the copy of `region` out of a block at `src` into a block at
    /// `dst` (both `(offset, count)` in global index space). Panics unless
    /// all three have the same rank and the region lies inside both blocks;
    /// an empty region plans no runs wherever it lies.
    fn new(src: (&[u64], &[u64]), dst: (&[u64], &[u64]), region: &BoxSel) -> StridePlan {
        let rank = region.rank();
        assert!(
            [src.0.len(), src.1.len(), dst.0.len(), dst.1.len()] == [rank; 4],
            "rank mismatch: region {region:?}, src block {src:?}, dst block {dst:?}"
        );
        let mut plan = StridePlan { src_start: 0, dst_start: 0, axes: Vec::new() };
        if region.is_empty() {
            return plan;
        }
        let inside = |(offset, count): (&[u64], &[u64])| {
            (0..rank).all(|d| {
                region.offset[d] >= offset[d]
                    && region.offset[d]
                        .checked_add(region.count[d])
                        .is_some_and(|end| end <= offset[d].saturating_add(count[d]))
            })
        };
        assert!(
            inside(src) && inside(dst),
            "region {region:?} must lie inside src block {src:?} and dst block {dst:?}"
        );
        plan.axes.reserve_exact(rank.max(1));
        // The axis being built, starting from a unit run that the fastest
        // dimension always continues; `src_step`/`dst_step` are the element
        // strides of dimension `d` in each block, and `fold` says whether
        // `d + 1` was full in both, so that `d` continues its axis too.
        let mut axis = Axis { extent: 1, src_step: 1, dst_step: 1, pos: 0 };
        let (mut src_step, mut dst_step, mut fold) = (1usize, 1usize, true);
        for d in (0..rank).rev() {
            plan.src_start += (region.offset[d] - src.0[d]) as usize * src_step;
            plan.dst_start += (region.offset[d] - dst.0[d]) as usize * dst_step;
            if !fold {
                let next = Axis { extent: 1, src_step, dst_step, pos: 0 };
                plan.axes.push(std::mem::replace(&mut axis, next));
            }
            axis.extent *= region.count[d] as usize;
            fold = region.count[d] == src.1[d] && region.count[d] == dst.1[d];
            src_step *= src.1[d] as usize;
            dst_step *= dst.1[d] as usize;
        }
        plan.axes.push(axis);
        plan
    }

    /// Elements in each contiguous run (0 for an empty region).
    pub(crate) fn run_len(&self) -> usize {
        self.axes.first().map_or(0, |run| run.extent)
    }

    /// Call `f(src_index, dst_index)` with the first element of every run,
    /// in row-major order of the region. Allocates nothing.
    pub(crate) fn for_each_run(mut self, mut f: impl FnMut(usize, usize)) {
        // Past the run, the fastest axis is a plain strided loop and the
        // rest an odometer that steps once per pass of that loop.
        let Some((_run, around)) = self.axes.split_first_mut() else { return };
        let Some((inner, outer)) = around.split_first_mut() else {
            return f(self.src_start, self.dst_start);
        };
        let (mut src, mut dst) = (self.src_start, self.dst_start);
        loop {
            for i in 0..inner.extent {
                f(src + i * inner.src_step, dst + i * inner.dst_step);
            }
            let mut carried = 0;
            for axis in outer.iter_mut() {
                axis.pos += 1;
                src += axis.src_step;
                dst += axis.dst_step;
                if axis.pos < axis.extent {
                    break;
                }
                src -= axis.extent * axis.src_step;
                dst -= axis.extent * axis.dst_step;
                axis.pos = 0;
                carried += 1;
            }
            if carried == outer.len() {
                return;
            }
        }
    }
}

fn extent_of(block: &LocalBlock) -> (&[u64], &[u64]) {
    (&block.offset, &block.count)
}

/// Copy the elements of `region` (a box in global space) from `src` into
/// `dst`. Both blocks are row-major in their own local extents. Panics
/// when the ranks differ or the region is not contained in both blocks.
pub fn copy_region(src: &LocalBlock, dst: &mut LocalBlock, region: &BoxSel) {
    let plan = StridePlan::new(extent_of(src), extent_of(dst), region);
    src.data.copy_runs(&mut dst.data, plan);
}

/// Extract `region` of `src` into a fresh minimal block whose extent is
/// exactly `region` — the "packed strides" a sender ships to a receiver.
pub fn extract_region(src: &LocalBlock, region: &BoxSel) -> LocalBlock {
    let plan = StridePlan::new(extent_of(src), (&region.offset, &region.count), region);
    LocalBlock {
        global_shape: src.global_shape.clone(),
        offset: region.offset.clone(),
        count: region.count.clone(),
        data: src.data.gather_runs(plan, region.num_elements() as usize),
    }
}

/// Reader-side accumulator that assembles a global-box selection from the
/// received region chunks.
#[derive(Debug)]
pub struct BoxAssembler {
    target: LocalBlock,
    received_elems: u64,
}

impl BoxAssembler {
    /// Start assembling `sel` of an array whose blocks have `dtype`
    /// matching the first received chunk (lazily allocated).
    pub fn new(sel: &BoxSel, template: &LocalBlock) -> BoxAssembler {
        BoxAssembler {
            target: LocalBlock {
                global_shape: template.global_shape.clone(),
                offset: sel.offset.clone(),
                count: sel.count.clone(),
                data: ArrayData::zeros(template.data.data_type(), sel.num_elements() as usize),
            },
            received_elems: 0,
        }
    }

    /// Merge one received region chunk.
    pub fn add(&mut self, chunk: &LocalBlock) {
        let region = BoxSel::new(chunk.offset.clone(), chunk.count.clone());
        self.add_region(chunk, &region);
    }

    /// Merge `region` of a (possibly larger, possibly packed-view) source
    /// block directly into the target — the zero-intermediate assembly
    /// path: strides go from the shared receive buffer straight into the
    /// target block, with no clipped temporary in between.
    pub fn add_region(&mut self, src: &LocalBlock, region: &BoxSel) {
        copy_region(src, &mut self.target, region);
        self.received_elems += region.num_elements();
    }

    /// Elements received so far (detects over/under-delivery in tests).
    pub fn received_elements(&self) -> u64 {
        self.received_elems
    }

    /// Finish; returns the assembled block.
    pub fn finish(self) -> LocalBlock {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{ArrayData, DataType};

    fn block_2d(offset: [u64; 2], count: [u64; 2]) -> LocalBlock {
        // Data value = global row * 100 + global col, for easy checking.
        let mut data = Vec::new();
        for r in offset[0]..offset[0] + count[0] {
            for c in offset[1]..offset[1] + count[1] {
                data.push((r * 100 + c) as f64);
            }
        }
        LocalBlock {
            global_shape: vec![10, 10],
            offset: offset.to_vec(),
            count: count.to_vec(),
            data: ArrayData::F64(data),
        }
        .validated()
    }

    #[test]
    fn intersection_basic() {
        let a = BoxSel::new(vec![0, 0], vec![5, 5]);
        let b = BoxSel::new(vec![3, 3], vec![5, 5]);
        assert_eq!(a.intersect(&b), Some(BoxSel::new(vec![3, 3], vec![2, 2])));
        let c = BoxSel::new(vec![5, 0], vec![2, 2]);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn intersection_is_commutative_and_contained() {
        let a = BoxSel::new(vec![1, 2, 0], vec![4, 3, 7]);
        let b = BoxSel::new(vec![0, 4, 3], vec![3, 6, 2]);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        let i = ab.unwrap();
        assert_eq!(i.intersect(&a).as_ref(), Some(&i));
        assert_eq!(i.intersect(&b).as_ref(), Some(&i));
    }

    #[test]
    fn rows_cover_the_box_exactly_once() {
        let b = BoxSel::new(vec![2, 3], vec![2, 4]);
        let rows: Vec<_> = b.rows().collect();
        assert_eq!(rows, vec![(vec![2, 3], 4), (vec![3, 3], 4)]);
        let b3 = BoxSel::new(vec![0, 1, 2], vec![2, 2, 3]);
        let total: u64 = b3.rows().map(|(_, run)| run).sum();
        assert_eq!(total, b3.num_elements());
    }

    #[test]
    fn rows_of_1d_and_empty() {
        let b = BoxSel::new(vec![5], vec![3]);
        assert_eq!(b.rows().collect::<Vec<_>>(), vec![(vec![5], 3)]);
        let e = BoxSel::new(vec![0, 0], vec![0, 4]);
        assert_eq!(e.rows().count(), 0);
    }

    #[test]
    fn extract_and_copy_region_preserve_values() {
        let src = block_2d([2, 2], [4, 4]);
        let region = BoxSel::new(vec![3, 3], vec![2, 2]);
        let extracted = extract_region(&src, &region);
        assert_eq!(
            extracted.data.as_f64(),
            &[303.0, 304.0, 403.0, 404.0],
            "values carry their global coordinates"
        );

        // Copy into a differently-shaped destination block.
        let mut dst = LocalBlock {
            global_shape: vec![10, 10],
            offset: vec![3, 0],
            count: vec![3, 6],
            data: ArrayData::zeros(DataType::F64, 18),
        }
        .validated();
        copy_region(&extracted, &mut dst, &region);
        // dst rows are global rows 3..6, cols 0..6.
        let d = dst.data.as_f64();
        assert_eq!(d[3], 303.0); // row 3, col 3
        assert_eq!(d[4], 304.0);
        assert_eq!(d[9], 403.0); // row 4 starts at index 6; col 3 => 6+3
        assert_eq!(d[10], 404.0);
        assert_eq!(d[0], 0.0, "untouched cells stay zero");
    }

    fn zeros(offset: &[u64], count: &[u64]) -> LocalBlock {
        LocalBlock {
            global_shape: vec![64; offset.len()],
            offset: offset.to_vec(),
            count: count.to_vec(),
            data: ArrayData::zeros(DataType::F64, count.iter().product::<u64>() as usize),
        }
        .validated()
    }

    /// (run length, extents of the axes walked around it, innermost first).
    fn shape_of(src: &LocalBlock, dst: &LocalBlock, region: &BoxSel) -> (usize, Vec<usize>) {
        let plan = StridePlan::new(extent_of(src), extent_of(dst), region);
        (plan.run_len(), plan.axes.iter().skip(1).map(|a| a.extent).collect())
    }

    #[test]
    fn a_dimension_folds_only_when_full_in_both_blocks() {
        let cube = zeros(&[0, 0, 0], &[32, 32, 32]);
        let slab = BoxSel::new(vec![0, 0, 8], vec![32, 32, 16]);
        let chunk = zeros(&slab.offset, &slab.count);
        // Extraction: z is partial in the cube, so a run is one z-row; y is
        // full in both, so x and y walk as one axis of 1024 rows.
        assert_eq!(shape_of(&cube, &chunk, &slab), (16, vec![1024]));
        // Assembly of a chunk that is the selection: one run.
        assert_eq!(shape_of(&chunk, &chunk.clone(), &slab), (32 * 32 * 16, vec![]));
        // Full in the source only: nothing folds.
        let wide = zeros(&[0, 0, 0], &[32, 40, 24]);
        assert_eq!(shape_of(&chunk, &wide, &slab), (16, vec![32, 32]));
        // A full middle dimension folds into its slower neighbour even
        // when the trailing one is partial in the destination.
        let deep = zeros(&[0, 0, 0], &[40, 32, 24]);
        assert_eq!(shape_of(&chunk, &deep, &slab), (16, vec![1024]));
        assert_eq!(shape_of(&cube, &chunk, &BoxSel::new(vec![0, 0, 8], vec![32, 0, 16])).0, 0);
    }

    #[test]
    #[should_panic(expected = "must lie inside src block")]
    fn region_outside_the_source_is_rejected() {
        let src = block_2d([2, 2], [4, 4]);
        let mut dst = zeros(&[0, 0], &[10, 10]);
        copy_region(&src, &mut dst, &BoxSel::new(vec![3, 3], vec![2, 4]));
    }

    #[test]
    #[should_panic(expected = "and dst block")]
    fn region_outside_the_destination_is_rejected() {
        let src = block_2d([0, 0], [8, 8]);
        let mut dst = zeros(&[2, 2], &[4, 4]);
        copy_region(&src, &mut dst, &BoxSel::new(vec![1, 3], vec![2, 2]));
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn region_of_the_wrong_rank_is_rejected() {
        let src = block_2d([0, 0], [8, 8]);
        extract_region(&src, &BoxSel::new(vec![1], vec![2]));
    }

    #[test]
    fn linearize_matches_row_major() {
        let b = BoxSel::new(vec![0, 0], vec![3, 4]);
        assert_eq!(b.linearize(&[0, 0]), 0);
        assert_eq!(b.linearize(&[0, 3]), 3);
        assert_eq!(b.linearize(&[1, 0]), 4);
        assert_eq!(b.linearize(&[2, 3]), 11);
    }

    #[test]
    fn whole_selection() {
        let w = BoxSel::whole(&[4, 5]);
        assert_eq!(w.num_elements(), 20);
        assert_eq!(w.offset, vec![0, 0]);
    }
}
