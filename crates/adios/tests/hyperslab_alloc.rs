//! Allocation behaviour of the strided-copy kernel.
//!
//! `copy_region` plans its strides once and then walks runs without
//! touching the heap, so its allocation count must not depend on how many
//! runs the region has; `extract_region` allocates the block it returns
//! exactly once, at full size. The workspace's counting global allocator
//! (`test_support::CountingAlloc`, per thread) watches both.

use adios::hyperslab::{copy_region, extract_region};
use adios::{ArrayData, BoxSel, DataType, LocalBlock};
use evpath::PackedArray;
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` counting this thread's allocations (and reallocations) of at
/// least `threshold` bytes.
fn allocs_of<R>(threshold: usize, f: impl FnOnce() -> R) -> (usize, R) {
    let (counts, out) = measure(threshold, f);
    (counts.at_or_over(), out)
}

/// An `n`³ cube as it arrives off the wire, its z ∈ [n/4, 3n/4) slab, and
/// an owned block over exactly that slab — the S3D staging step at n = 32.
fn cube_and_slab(n: u64) -> (LocalBlock, BoxSel, LocalBlock) {
    let field: Vec<f64> = (0..n * n * n).map(|i| i as f64).collect();
    let cube = LocalBlock {
        global_shape: vec![n; 3],
        offset: vec![0; 3],
        count: vec![n; 3],
        data: ArrayData::Packed(PackedArray::from_f64s(&field)),
    }
    .validated();
    let slab = BoxSel::new(vec![0, 0, n / 4], vec![n, n, n / 2]);
    let target = LocalBlock {
        global_shape: vec![n; 3],
        offset: slab.offset.clone(),
        count: slab.count.clone(),
        data: ArrayData::zeros(DataType::F64, slab.num_elements() as usize),
    }
    .validated();
    (cube, slab, target)
}

#[test]
fn the_kernel_allocates_per_call_not_per_run() {
    // 1 024 runs of 16 elements against 64 runs of 4: the same count.
    let (cube, slab, mut target) = cube_and_slab(32);
    let (s3d, ()) = allocs_of(0, || copy_region(&cube, &mut target, &slab));
    let (small_cube, small_slab, mut small_target) = cube_and_slab(8);
    let (small, ()) = allocs_of(0, || copy_region(&small_cube, &mut small_target, &small_slab));
    assert_eq!(s3d, small, "allocations must not scale with the 1024 vs 64 runs");
    assert!(s3d <= 4, "copy_region allocated {s3d} times for one plan");
    assert_eq!(target.data.as_f64()[16], 32.0 + 8.0, "second row starts at cube[0][1][8]");

    // The extracted block: one allocation of the payload's size, never
    // grown, and beside it only the plan and the block's three extents.
    let payload = slab.num_elements() as usize * 8;
    let (large, chunk) = allocs_of(payload, || extract_region(&cube, &slab));
    assert_eq!(large, 1, "extract_region must allocate its {payload}-byte output exactly once");
    assert_eq!(chunk.data, target.data);
    let (all, _) = allocs_of(0, || extract_region(&cube, &slab));
    assert!(all <= 5, "extract_region allocated {all} times");
}
