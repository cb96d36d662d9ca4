//! Heap allocations scale with chunks, not with agents.
//!
//! Every agent column is plain `Copy` data and a daughter is written
//! straight into the columns' reserved room, so nothing on the birth,
//! reorder or restore path may touch the allocator once per agent, or
//! once per chunk: a division wave allocates a constant (one growth step
//! per column; the daughters' keys and their sort borrow the step
//! buffer), whatever the population; so does a restore; and a warm
//! reorder allocates nothing at all on one worker (the step buffer holds
//! every word it needs) and on two only what its fork-joins do. The
//! engine that kept a `Vec<Behavior>` per agent paid one per birth, per
//! gathered agent and per restored agent — 21,952 / 27,648 / 27,648
//! allocations on the scenes below. And a step on a scene that neither
//! divides nor dies keeps nothing but its profile records.
//!
//! Counted with the thread-local allocator of `bdm-gpu`'s
//! `alloc_steady`, with the step's `par_*` loops on the calling thread
//! (`ExecMode::Serial`), so every allocation of a step is this thread's.

use bdm_morton::Curve;
use bdm_sim::mech;
use bdm_sim::rayon::ThreadPoolBuilder;
use bdm_sim::rm::ResourceManager;
use bdm_sim::scheduler::ExecMode;
use bdm_sim::simulation::Simulation;
use bdm_sim::workload::{benchmark_a, benchmark_b};
use bdm_soa::{StepBuffer, CHUNK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread (the test harness's other
    /// threads must not pollute the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static RETAINED: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one(grown: usize, freed: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    retain(grown, freed);
}

fn retain(grown: usize, freed: usize) {
    let _ = RETAINED.try_with(|c| c.set(c.get() + grown as i64 - freed as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is thread-local
// counter updates that neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), 0);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        retain(0, layout.size());
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

/// Heap bytes `f` leaves allocated on this thread.
fn retained_in<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = RETAINED.with(Cell::get);
    let r = f();
    (RETAINED.with(Cell::get) - before, r)
}

/// Benchmark A (`cells_per_dim`³ cells, all dividing on step 1) with a
/// reorder every second step, stepped on the calling thread.
fn wave_scene(cells_per_dim: usize) -> Simulation {
    let mut sim = benchmark_a(cells_per_dim, 21);
    sim.set_exec_mode(ExecMode::Serial);
    assert!(sim.scheduler_mut().set_enabled("reorder", true));
    assert!(sim.scheduler_mut().set_frequency("reorder", 2));
    sim
}

/// Leave only operation `op` enabled.
fn isolate(sim: &mut Simulation, op: &str) {
    let names: Vec<String> = sim
        .scheduler()
        .op_names()
        .into_iter()
        .map(String::from)
        .collect();
    for name in &names {
        assert!(sim.scheduler_mut().set_enabled(name, name == op));
    }
}

/// Allocations of the scene's first division wave, behaviors only: the
/// chunk loop, the daughters' commit and the merge.
fn wave_allocations(cells_per_dim: usize) -> u64 {
    let mut sim = wave_scene(cells_per_dim);
    let n = sim.rm().len();
    sim.step();
    assert_eq!(sim.rm().len(), n, "no division before step 1");
    isolate(&mut sim, "behaviors");
    let (allocations, ()) = allocations_in(|| sim.step());
    assert_eq!(sim.rm().len(), 2 * n, "every cell divided");
    allocations
}

#[test]
fn a_division_wave_allocates_a_constant() {
    let (small, large) = (wave_allocations(14), wave_allocations(28));
    assert!(small > 0, "the counting allocator is not installed");
    let chunks = [14usize, 28].map(|c| c.pow(3).div_ceil(CHUNK));
    assert_eq!(chunks, [1, 6]);
    assert_eq!(large, small, "8x the agents and 6x the chunks");
    assert!(large < 64, "{large} allocations");
}

/// Allocations of two warm reorders of the scene after its first wave,
/// run on `workers` workers: one that gathers (storage the wave's
/// appended daughters and two steps of motion scrambled) and one that
/// finds the result sorted, both with scratch that sorted the same
/// population before.
fn warm_reorder_allocations(cells_per_dim: usize, workers: usize) -> [u64; 2] {
    let mut sim = wave_scene(cells_per_dim);
    let n = sim.rm().len();
    sim.simulate(4);
    assert_eq!(sim.rm().len(), 2 * n);
    let space = sim.params().space;
    let radius = mech::interaction_radius(sim.rm(), sim.params());
    let sort = |rm: &mut ResourceManager, buffer: &mut StepBuffer| {
        rm.sort_storage(&space, radius, Curve::ZOrder, buffer, None)
    };
    let mut buffer = StepBuffer::default();
    let pool = ThreadPoolBuilder::new().num_threads(workers).build();
    pool.expect("pool").install(|| {
        assert_eq!(sort(&mut sim.rm().clone(), &mut buffer), 2 * n as u64);
        let mut rm = sim.rm().clone();
        let (gathering, moved) = allocations_in(|| sort(&mut rm, &mut buffer));
        assert_eq!(moved, 2 * n as u64, "an identity reorder");
        let (sorted, moved) = allocations_in(|| sort(&mut rm, &mut buffer));
        assert_eq!(moved, 0, "the gather left storage unsorted");
        [gathering, sorted]
    })
}

#[test]
fn a_warmed_reorder_allocates_a_constant() {
    for cells_per_dim in [12, 24] {
        let one = warm_reorder_allocations(cells_per_dim, 1);
        assert_eq!(one, [0, 0], "{cells_per_dim}³ cells on one worker");
    }
    let (small, large) = (
        warm_reorder_allocations(12, 2),
        warm_reorder_allocations(24, 2),
    );
    assert!(small[0] > 0, "the counting allocator is not installed");
    assert_eq!(large, small, "8x the agents, on two workers");
}

/// Allocations of restoring the scene's checkpoint after its first wave.
fn restore_allocations(cells_per_dim: usize) -> u64 {
    let mut sim = wave_scene(cells_per_dim);
    sim.simulate(3);
    let mut bytes = Vec::new();
    sim.checkpoint(&mut bytes).expect("checkpoint to Vec");
    let (allocations, restored) = allocations_in(|| Simulation::restore(&mut bytes.as_slice()));
    let restored = restored.expect("restore");
    assert_eq!(restored.rm().len(), 2 * cells_per_dim.pow(3));
    assert_eq!(restored.rm().behaviors(0), sim.rm().behaviors(0));
    allocations
}

#[test]
fn a_restore_allocates_a_constant() {
    let (small, large) = (restore_allocations(12), restore_allocations(24));
    assert!(small > 0, "the counting allocator is not installed");
    assert_eq!(large, small, "8x the agents");
    assert!(large < 128, "{large} allocations");
}

/// A warm step of a scene without births or deaths holds on to its
/// profile records and nothing else. A CPU operation's record is a name,
/// a wall time and one phase; its GPU report, which a CPU step never
/// fills, is boxed (inline it would be 384 of the record's 440 bytes).
#[test]
fn a_frozen_step_retains_only_its_profile_records() {
    let mut sim = benchmark_b(2_000, 27.0, 7);
    sim.set_exec_mode(ExecMode::Serial);
    sim.simulate(8);
    let steps = 64;
    let (bytes, ()) = retained_in(|| sim.simulate(steps));
    let records = sim.profiler().steps().last().expect("a step").records.len();
    assert!(records > 0);
    let per_record = bytes / (steps as i64 * records as i64);
    assert!(per_record > 0, "the counting allocator is not installed");
    // A 64-byte record, its name and one 48-byte phase read 137 bytes a
    // record; with the report inline, 513.
    assert!(
        per_record < 192,
        "{bytes} bytes retained over {steps} steps of {records} records"
    );
}
