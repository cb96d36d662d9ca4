//! Steady-state launches allocate nothing.
//!
//! The engine's trace path lives on device-owned arenas that grow on
//! first use — the per-key buckets above all, which are emptied by the
//! drain and keep their capacity — so once a launch shape has been seen,
//! repeating it must not touch the heap at all — not per traced warp,
//! not per slot, not per block of shared memory. (The `BTreeMap`-of-`Vec`s
//! coalescer this replaced allocated one or two `Vec`s per slot per traced
//! warp: 1,524 on this scene's grid-build launch and 60,555 on its mech
//! launch.)

use bdm_device::specs::SYSTEM_A;
use bdm_gpu::engine::LaunchResult;
use bdm_gpu::kernels::grid_build::GridBuildKernel;
use bdm_gpu::kernels::layout::{AgentCols, ChainGrid, DispCols};
use bdm_gpu::kernels::mech::ForceKernel;
use bdm_gpu::mem::DeviceAllocator;
use bdm_gpu::{GpuDevice, LaunchConfig};
use bdm_grid::GridGeometry;
use bdm_math::interaction::MechParams;
use bdm_math::{Aabb, SplitMix64, Vec3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread (the test harness's other
    /// threads must not pollute the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce() -> LaunchResult) -> (u64, LaunchResult) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

#[test]
fn second_identical_launch_performs_zero_heap_allocations() {
    let n = 2000;
    let extent = 12.0;
    let mut rng = SplitMix64::new(17);
    let mut column =
        |lo: f64, hi: f64| -> Vec<f64> { (0..n).map(|_| rng.uniform(lo, hi)).collect() };
    let (xs, ys, zs) = (
        column(0.0, extent),
        column(0.0, extent),
        column(0.0, extent),
    );
    let geom = GridGeometry::new(Aabb::new(Vec3::zero(), Vec3::splat(extent)), 1.0);
    assert_eq!(geom.dims(), [12, 12, 12]);

    let mut alloc = DeviceAllocator::new();
    let cols = std::array::from_fn(|_| alloc.alloc::<f64>(n));
    let disp = std::array::from_fn(|_| alloc.alloc::<f64>(n));
    cols[0].upload(&xs);
    cols[1].upload(&ys);
    cols[2].upload(&zs);
    cols[3].fill(1.0);
    cols[4].fill(0.01);
    let box_start = alloc.alloc::<u32>(geom.num_boxes());
    let box_length = alloc.alloc::<u32>(geom.num_boxes());
    let successors = alloc.alloc::<u32>(n);
    let grid = ChainGrid {
        box_start: &box_start,
        box_length: &box_length,
        successors: &successors,
    };

    let build = GridBuildKernel {
        n,
        geom,
        agents: AgentCols(&cols),
        grid,
    };
    let mech = ForceKernel {
        n,
        geom,
        agents: AgentCols(&cols),
        source: grid,
        out: DispCols(&disp),
        params: MechParams::<f64>::default_params(),
    };
    let cfg = LaunchConfig::for_items(n, 128);
    let dev = GpuDevice::new(SYSTEM_A.gpu);

    // Warm-up: the arenas grow to this launch shape.
    grid.reset();
    let (warm_build, first_build) = allocations_in(|| dev.launch(&build, cfg));
    let (warm_mech, first_mech) = allocations_in(|| dev.launch(&mech, cfg));
    assert!(
        warm_build > 0 && warm_mech > 0,
        "the counting allocator is not installed"
    );
    assert!(first_mech.counters.global_transactions > 1e4, "toy scene?");

    // Steady state: the same two launches again, on a cold L2 like the
    // first pair.
    dev.reset_l2();
    grid.reset();
    let (steady_build, second_build) = allocations_in(|| dev.launch(&build, cfg));
    let (steady_mech, second_mech) = allocations_in(|| dev.launch(&mech, cfg));
    assert_eq!(steady_build, 0, "grid-build launch allocated");
    assert_eq!(steady_mech, 0, "mech launch allocated");
    // And it really was the identical work.
    assert_eq!(first_build.counters, second_build.counters);
    assert_eq!(first_mech.counters, second_mech.counters);

    // A resident pipeline's next step: the same two launches once more
    // with the L2 left warm — the same transactions, more of them hits.
    grid.reset();
    let (resident_build, third_build) = allocations_in(|| dev.launch(&build, cfg));
    let (resident_mech, third_mech) = allocations_in(|| dev.launch(&mech, cfg));
    assert_eq!(resident_build, 0, "warm grid-build launch allocated");
    assert_eq!(resident_mech, 0, "warm mech launch allocated");
    for (cold, warm) in [(&second_build, &third_build), (&second_mech, &third_mech)] {
        let (cold, warm) = (&cold.counters, &warm.counters);
        assert_eq!(cold.global_transactions, warm.global_transactions);
        assert!(warm.l2_hits > cold.l2_hits, "the L2 was not left warm");
    }
}
