//! Steady-state launches allocate nothing of their own.
//!
//! The engine's trace path lives on device-owned arenas, one per block
//! chunk, that grow on first use — the per-key buckets above all, which
//! are emptied by the drain and keep their capacity — so once a launch
//! shape has been seen, repeating it must not touch the heap — not per
//! traced warp, not per slot, not per block of shared memory, not per
//! chunk. On one worker that is zero allocations; a launch that forks its
//! blocks onto more workers allocates what the fork-join itself does
//! (spawning the helper threads), and nothing that scales with the scene.
//! (The `BTreeMap`-of-`Vec`s coalescer this replaced allocated one or two
//! `Vec`s per slot per traced warp: 1,524 on this scene's grid-build
//! launch and 60,555 on its mech launch.)

use bdm_device::specs::SYSTEM_A;
use bdm_gpu::engine::{Kernel, LaunchResult, ThreadCtx, ThreadId};
use bdm_gpu::kernels::grid_build::GridBuildKernel;
use bdm_gpu::kernels::layout::{AgentCols, ChainGrid, DispCols};
use bdm_gpu::kernels::mech::ForceKernel;
use bdm_gpu::mem::{DeviceAllocator, DeviceBuffer};
use bdm_gpu::{GpuDevice, LaunchConfig};
use bdm_grid::rayon::prelude::*;
use bdm_grid::rayon::ThreadPoolBuilder;
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
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Runs `f` with every `par_*` call it makes (a launch's included)
/// forking onto `workers` threads.
fn on_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("pool")
        .install(f)
}

/// `n` agents in an `extent`³ cube of unit voxels on the device, with the
/// chained grid the two launches of a step build and walk.
struct Scene {
    n: usize,
    geom: GridGeometry<f64>,
    cols: [DeviceBuffer<f64>; 5],
    disp: [DeviceBuffer<f64>; 3],
    box_start: DeviceBuffer<u32>,
    box_length: DeviceBuffer<u32>,
    successors: DeviceBuffer<u32>,
}

impl Scene {
    /// `n` uniformly random agents; `sorted` stores them voxel by voxel,
    /// so that neighboring lanes walk the same chains.
    fn new(n: usize, extent: f64, sorted: bool) -> Self {
        let mut rng = SplitMix64::new(17);
        let mut column =
            |lo: f64, hi: f64| -> Vec<f64> { (0..n).map(|_| rng.uniform(lo, hi)).collect() };
        let (xs, ys, zs) = (
            column(0.0, extent),
            column(0.0, extent),
            column(0.0, extent),
        );
        let mut order: Vec<usize> = (0..n).collect();
        if sorted {
            order.sort_by_key(|&i| [zs[i] as u32, ys[i] as u32, xs[i] as u32]);
        }
        let stored = |col: &[f64]| -> Vec<f64> { order.iter().map(|&i| col[i]).collect() };
        let geom = GridGeometry::new(Aabb::new(Vec3::zero(), Vec3::splat(extent)), 1.0);
        assert_eq!(geom.dims(), [extent as u32; 3]);

        let mut alloc = DeviceAllocator::new();
        let cols: [DeviceBuffer<f64>; 5] = std::array::from_fn(|_| alloc.alloc::<f64>(n));
        let disp = std::array::from_fn(|_| alloc.alloc::<f64>(n));
        cols[0].upload(&stored(&xs));
        cols[1].upload(&stored(&ys));
        cols[2].upload(&stored(&zs));
        cols[3].fill(1.0);
        cols[4].fill(0.01);
        Self {
            n,
            geom,
            cols,
            disp,
            box_start: alloc.alloc::<u32>(geom.num_boxes()),
            box_length: alloc.alloc::<u32>(geom.num_boxes()),
            successors: alloc.alloc::<u32>(n),
        }
    }

    fn grid(&self) -> ChainGrid<'_> {
        ChainGrid {
            box_start: &self.box_start,
            box_length: &self.box_length,
            successors: &self.successors,
        }
    }

    /// Reset and rebuild the grid: the launch's heap allocations and
    /// result.
    fn build(&self, dev: &GpuDevice, cfg: LaunchConfig) -> (u64, LaunchResult) {
        let build = GridBuildKernel {
            n: self.n,
            geom: self.geom,
            agents: AgentCols(&self.cols),
            grid: self.grid(),
        };
        self.grid().reset();
        allocations_in(|| dev.launch(&build, cfg))
    }

    /// The force launch over the grid as `build` left it.
    fn mech(&self, dev: &GpuDevice, cfg: LaunchConfig) -> (u64, LaunchResult) {
        let mech = ForceKernel {
            n: self.n,
            geom: self.geom,
            agents: AgentCols(&self.cols),
            source: self.grid(),
            out: DispCols(&self.disp),
            params: MechParams::<f64>::default_params(),
        };
        allocations_in(|| dev.launch(&mech, cfg))
    }

    /// One step's two launches.
    fn step(&self, dev: &GpuDevice, cfg: LaunchConfig) -> [(u64, LaunchResult); 2] {
        [self.build(dev, cfg), self.mech(dev, cfg)]
    }
}

/// 2,000 agents, ≈ 1.2 per voxel.
fn small_scene(sorted: bool) -> Scene {
    Scene::new(2000, 12.0, sorted)
}

#[test]
fn second_identical_launch_performs_zero_heap_allocations() {
    on_workers(1, second_identical_launch);
}

fn second_identical_launch() {
    let scene = small_scene(false);
    let cfg = LaunchConfig::for_items(scene.n, 128);
    let dev = GpuDevice::new(SYSTEM_A.gpu);

    // Warm-up: the arenas grow to this launch shape.
    let [(warm_build, first_build), (warm_mech, first_mech)] = scene.step(&dev, cfg);
    assert!(
        warm_build > 0 && warm_mech > 0,
        "the counting allocator is not installed"
    );
    assert!(first_mech.counters.global_transactions > 1e4, "toy scene?");

    // Steady state: the same two launches again, on a cold L2 like the
    // first pair.
    dev.reset_l2();
    let [(steady_build, second_build), (steady_mech, second_mech)] = scene.step(&dev, cfg);
    assert_eq!(steady_build, 0, "grid-build launch allocated");
    assert_eq!(steady_mech, 0, "mech launch allocated");
    // And it really was the identical work.
    assert_eq!(first_build.counters, second_build.counters);
    assert_eq!(first_mech.counters, second_mech.counters);

    // A resident pipeline's next step: the same two launches once more
    // with the L2 left warm — the same transactions, more of them hits.
    let [(resident_build, third_build), (resident_mech, third_mech)] = scene.step(&dev, cfg);
    assert_eq!(resident_build, 0, "warm grid-build launch allocated");
    assert_eq!(resident_mech, 0, "warm mech launch allocated");
    for (cold, warm) in [(&second_build, &third_build), (&second_mech, &third_mech)] {
        let (cold, warm) = (&cold.counters, &warm.counters);
        assert_eq!(cold.global_transactions, warm.global_transactions);
        assert!(warm.l2_hits > cold.l2_hits, "the L2 was not left warm");
    }
}

/// The lane filter's two streams live in the arena too. On sorted storage
/// it absorbs most accesses, lanes differ widely in length (a stream is as
/// long as its lane's neighbor walk), and after an odd number of lanes the
/// two streams have traded places — each must already be as large as the
/// longest lane the *other* has seen. The extreme of that is a launch of
/// one lane: the repeat logs into the stream the first launch never wrote.
#[test]
fn second_sorted_scene_launch_performs_zero_heap_allocations() {
    on_workers(1, second_sorted_scene_launch);
}

fn second_sorted_scene_launch() {
    let scene = Scene::new(1875, 12.0, true);
    let cfg = LaunchConfig::for_items(scene.n, 125);
    assert_eq!(cfg.total_threads() % 2, 1);
    let dev = GpuDevice::new(SYSTEM_A.gpu);

    let [_, (warm_mech, first_mech)] = scene.step(&dev, cfg);
    assert!(warm_mech > 0, "the counting allocator is not installed");
    let logged = first_mech.accesses;
    assert!(
        logged.filtered * 2 > logged.total,
        "sorted lanes should mostly repeat their neighbors: {logged:?}"
    );

    // The force launch alone (the grid stands): an odd number of lanes
    // since it last began. The same accesses on a warmer L2.
    let (steady_mech, second_mech) = scene.mech(&dev, cfg);
    assert_eq!(steady_mech, 0, "mech launch allocated");
    assert_eq!(first_mech.accesses, second_mech.accesses);
    assert_eq!(
        first_mech.counters.global_transactions,
        second_mech.counters.global_transactions
    );

    /// A thousand loads, far more than a lane of the scene makes.
    struct LongLane<'a>(&'a DeviceBuffer<f64>);
    impl Kernel for LongLane<'_> {
        fn thread(&self, _: usize, _: ThreadId, ctx: &mut ThreadCtx<'_>) {
            for i in 0..1000 {
                ctx.begin_slot();
                ctx.ld(self.0, i);
            }
        }
    }
    let (lane, one_lane) = (LongLane(&scene.cols[0]), LaunchConfig::for_items(1, 1));
    let (warm, _) = allocations_in(|| dev.launch(&lane, one_lane));
    let (steady, _) = allocations_in(|| dev.launch(&lane, one_lane));
    assert!(warm > 0, "the long lane fitted the arena as it was");
    assert_eq!(steady, 0, "one-lane launch allocated");
}

/// On two workers the force launch forks its blocks into eight chunks.
/// What it allocates on the launching thread is then exactly what an empty
/// `par_*` loop of eight items allocates there — the helper thread's spawn
/// — and the same for a scene ten times as large (in the same density):
/// nothing scales with lanes, keys or chunks. The in-order grid build
/// spawns nothing and allocates nothing.
#[test]
fn a_forked_launch_allocates_only_what_the_fork_join_does() {
    on_workers(2, || {
        let mut items = [0u8; 8];
        let mut fork_join = || allocations_in(|| items.par_iter_mut().for_each(|i| *i += 1)).0;
        fork_join();
        let fork_join = fork_join();
        assert!(fork_join > 0, "the empty loop did not fork");

        for (n, extent) in [(2_000, 12.0), (20_000, 26.0)] {
            let scene = Scene::new(n, extent, false);
            let cfg = LaunchConfig::for_items(scene.n, 128);
            let dev = GpuDevice::new(SYSTEM_A.gpu);
            scene.step(&dev, cfg);
            dev.reset_l2();
            let [(build, _), (mech, steady)] = scene.step(&dev, cfg);
            assert_eq!(build, 0, "{n} agents: the in-order grid build allocated");
            assert_eq!((steady.launches.forked, steady.launches.chunks), (1, 8));
            assert_eq!(mech, fork_join, "{n} agents: the forked launch allocated");
        }
    });
}
