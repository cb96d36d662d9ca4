//! The host work model: how the work each operation really did prices
//! into the [`Phase`]s the Table I CPU model ([`bdm_device::cpu`]) times.
//!
//! Every modeled host phase is priced here, once: each function takes
//! the counters its caller already computed (FLOPs are never assumed,
//! only the per-event equivalents below) and returns the phase under its
//! profiler name. The names are the Fig. 3 record names.
//!
//! * a candidate distance test touches one agent's state: position (24 B)
//!   plus diameter (8 B) ⇒ 32 B;
//! * a tree-node hop or a successor-link hop is one dependent random
//!   access;
//! * the kd-tree build streams the point set once per level
//!   (read + write ≈ 48 B per point per level) and is **serial**;
//! * the grid build streams each agent once (position read + two list
//!   writes ≈ 60 B) with one scattered head update.

use crate::diffusion::DiffusionStats;
use crate::param::Precision;
use bdm_device::cpu::Phase;
use bdm_grid::QueryCounters;
use bdm_kdtree::BuildStats;

// ----- phase names -----

/// The neighborhood structure's build (every host environment).
pub const NEIGHBORHOOD_BUILD: &str = "neighborhood build";
/// The kd pipeline's per-agent neighbor-list update.
pub const NEIGHBORHOOD_SEARCH: &str = "neighborhood search";
/// The force sweep and its integration.
pub const MECHANICAL_FORCES: &str = "mechanical forces";
/// The sharded driver's `(voxel, id)` storage sort.
pub const SHARD_SORT: &str = "shard sort";
/// The phases the mechanical interactions operation records on a host
/// path, one record each.
pub const MECH_PHASES: [&str; 4] = [
    SHARD_SORT,
    NEIGHBORHOOD_BUILD,
    NEIGHBORHOOD_SEARCH,
    MECHANICAL_FORCES,
];
/// The host Z-order reorder operation.
pub const REORDER: &str = "reorder";
/// The behaviors operation.
pub const BEHAVIORS: &str = "behaviors";
/// The bound-space operation.
pub const BOUND_SPACE: &str = "bound space";
/// The shard rebalance operation.
pub const SHARD_REBALANCE: &str = "shard rebalance";
/// The diffusion operation's in-place sweep.
pub const DIFFUSION: &str = "diffusion";
/// The out-of-place reference sweep the in-place one is checked against.
pub const DIFFUSION_REFERENCE: &str = "diffusion reference";

// ----- kd-tree pipeline (the BioDynaMo v0.0.9 baseline) -----
// Calibration note: the baseline's per-event costs are deliberately
// *heavier* than the lean uniform-grid pass below. The v0.0.9 kd
// pipeline materializes per-agent neighbor lists (std::vector
// appends), traverses pointer-linked tree nodes, and runs the force
// pass through virtual behavior dispatch — which is why the authors'
// tight fused uniform-grid rewrite beats it 2× even serially (§VI).

/// Bytes per point per tree level during the (serial) kd build.
pub const KD_BUILD_BYTES_PER_POINT_LEVEL: f64 = 48.0;
/// FLOPs per point per level (comparisons/swaps) during the kd build.
pub const KD_BUILD_FLOPS_PER_POINT_LEVEL: f64 = 4.0;
/// Tree nodes per dependent access of the kd build.
pub const KD_BUILD_NODES_PER_RANDOM: f64 = 4.0;
/// FLOPs per candidate in the kd search (the distance test; traversal
/// costs are captured by the random-access term).
pub const KD_SEARCH_FLOPS_PER_CANDIDATE: f64 = 8.0;
/// Bytes per candidate in the kd search (leaf-contiguous point data).
pub const KD_SEARCH_BYTES_PER_CANDIDATE: f64 = 24.0;
/// Node hops per dependent access of the kd search: upper tree levels
/// stay cache-resident, so only about half the hops go to memory.
pub const KD_SEARCH_HOPS_PER_RANDOM: f64 = 2.0;
/// FLOPs-equivalent per stored neighbor in the list-based force pass
/// (Eq. 1 plus virtual dispatch and AoS staging).
pub const FORCE_FLOPS_PER_NEIGHBOR: f64 = 125.0;
/// Bytes per stored neighbor in the list-based force pass.
pub const FORCE_BYTES_PER_NEIGHBOR: f64 = 96.0;
/// Bytes per agent of fixed force-phase traffic (own state + output).
pub const FORCE_FIXED_BYTES_PER_AGENT: f64 = 120.0;
/// FLOPs per agent of displacement integration.
pub const FORCE_FIXED_FLOPS_PER_AGENT: f64 = 50.0;

// ----- uniform-grid pipeline (the paper's §IV-A rewrite) -----

/// Bytes per agent for the grid build (position read + list writes).
pub const GRID_BUILD_BYTES_PER_AGENT: f64 = 60.0;
/// FLOPs per tested candidate in the fused grid pass (distance test).
pub const UG_FLOPS_PER_CANDIDATE: f64 = 12.0;
/// Bytes per tested candidate in the fused grid pass.
pub const UG_BYTES_PER_CANDIDATE: f64 = 32.0;
/// FLOPs per contact in the fused grid pass (lean Eq. 1, no
/// dispatch overhead — the pass was written for the paper).
pub const UG_FLOPS_PER_CONTACT: f64 = 25.0;
/// Fixed per-agent cost of the fused pass.
pub const UG_FIXED_FLOPS_PER_AGENT: f64 = 15.0;
/// Fixed per-agent bytes of the fused pass (own state + output).
pub const UG_FIXED_BYTES_PER_AGENT: f64 = 80.0;

// ----- CSR uniform-grid pipeline (post-paper layout) -----
// The counting-sort build streams the agents twice (position read +
// voxel-id write, then voxel-id read + id scatter) instead of doing
// one scattered list-head update per agent, and queries read each
// voxel's ids as one contiguous slice instead of chasing successor
// links — so the CSR constants shift cost out of the
// `random_accesses` term and into streaming bytes.

/// Bytes per agent of the CSR counting-sort build: pass 1 reads the
/// position (24 B) and writes the voxel id (4 B); pass 2 re-reads the
/// voxel id (4 B), reads a cursor (4 B), and writes the agent id
/// (4 B); prefix-scan traffic amortizes to ~4 B.
pub const CSR_BUILD_BYTES_PER_AGENT: f64 = 44.0;
/// Scattered accesses per agent during the build: the histogram and
/// cursor updates hit a `num_boxes`-sized array that is mostly
/// cache-resident, so only a fraction goes to memory.
pub const CSR_BUILD_RANDOM_PER_AGENT: f64 = 0.125;
/// Bytes per agent of a *skipped* incremental rebuild: pass 1 still
/// reads the position (24 B) and writes the voxel id (4 B), plus the
/// slot check's read of it (4 B); the counting sort never runs.
pub const CSR_BUILD_SKIP_BYTES_PER_AGENT: f64 = 32.0;
/// FLOPs per tested candidate (the same distance test as the
/// linked-list pass).
pub const CSR_FLOPS_PER_CANDIDATE: f64 = 12.0;
/// Bytes per tested candidate: streamed id (4 B) + gathered position
/// (24 B) + diameter (8 B). No successor link.
pub const CSR_BYTES_PER_CANDIDATE: f64 = 36.0;
/// Dependent accesses per scanned stencil voxel: the 27-voxel stencil
/// is 9 contiguous x-runs of 3 voxels, so only every third voxel
/// starts a new stream (vs. one list-head chase per voxel for the
/// linked list).
pub const CSR_RANDOM_PER_BOX: f64 = 1.0 / 3.0;

// ----- mixed-precision SIMD CSR pass (paper Improvement I, on the
// CPU): same candidate enumeration as the CSR pass above, but the
// gathered per-candidate state narrows to f32 — the memory-bound
// gather term halves, which is exactly the Improvement I mechanism.

/// Bytes per tested candidate of the f32 pass: streamed id (4 B) +
/// gathered f32 position (12 B) + f32 diameter (4 B).
pub const SIMD_BYTES_PER_CANDIDATE: f64 = 20.0;
/// Fixed per-agent bytes of the f32 pass: own f32 state (20 B,
/// position + diameter + adherence) + f64 displacement write (24 B).
pub const SIMD_FIXED_BYTES_PER_AGENT: f64 = 44.0;

// ----- storage sort (host reorder, shard sort): key computation +
// argsort + (amortized) column gathers -----

/// FLOPs per agent of the key computation and argsort.
pub const SORT_FLOPS_PER_AGENT: f64 = 30.0;
/// Bytes per agent of the key pass and argsort.
pub const SORT_BYTES_PER_AGENT: f64 = 32.0;
/// Bytes per gathered agent (every column read and written once).
pub const SORT_BYTES_PER_MOVED: f64 = 136.0;

// ----- per-agent operations -----

/// FLOPs per behavior run.
pub const BEHAVIOR_FLOPS_PER_RUN: f64 = 20.0;
/// Bytes per behavior run.
pub const BEHAVIOR_BYTES_PER_RUN: f64 = 64.0;
/// FLOPs per division (the daughters' placement).
pub const DIVISION_FLOPS: f64 = 60.0;
/// FLOPs per agent of the bound-space clamp test.
pub const BOUND_SPACE_FLOPS_PER_AGENT: f64 = 6.0;
/// Bytes per agent of the bound-space pass (position read + write).
pub const BOUND_SPACE_BYTES_PER_AGENT: f64 = 48.0;
/// FLOPs per agent of the rebalance's key computation, uid-sorted diff
/// and key sort.
pub const REBALANCE_FLOPS_PER_AGENT: f64 = 40.0;
/// Bytes per agent of the rebalance.
pub const REBALANCE_BYTES_PER_AGENT: f64 = 48.0;

// ----- diffusion: 19 FLOPs per stencil update. Interior updates stream
// 2 words/voxel (read the center row once, write once — the six neighbor
// rows ride the sweep's three hot planes in cache); wall voxels get no
// reuse credit and touch all 8 words, as does every voxel of the
// out-of-place reference sweep. The f32 path halves the word size.

/// FLOPs per voxel update of the 7-point stencil.
pub const DIFFUSION_FLOPS_PER_UPDATE: f64 = 19.0;
/// Words streamed per interior voxel update of the in-place sweep.
pub const DIFFUSION_INTERIOR_WORDS: f64 = 2.0;
/// Words touched per wall voxel update (and per reference update).
pub const DIFFUSION_WALL_WORDS: f64 = 8.0;

/// The serial kd build of `stats.points` points over `stats.depth`
/// levels.
pub fn kd_build(stats: &BuildStats) -> Phase {
    let (points, depth) = (stats.points as f64, stats.depth as f64);
    let flops = KD_BUILD_FLOPS_PER_POINT_LEVEL * points * depth;
    let bytes = KD_BUILD_BYTES_PER_POINT_LEVEL * points * depth;
    let random = stats.nodes as f64 / KD_BUILD_NODES_PER_RANDOM;
    Phase::serial_fp64(NEIGHBORHOOD_BUILD, flops, bytes, random)
}

/// The kd pipeline's parallel radius queries.
pub fn kd_search(counters: &bdm_kdtree::QueryCounters) -> Phase {
    let tested = counters.points_tested as f64;
    let flops = KD_SEARCH_FLOPS_PER_CANDIDATE * tested;
    let bytes = KD_SEARCH_BYTES_PER_CANDIDATE * tested;
    let random = counters.nodes_visited as f64 / KD_SEARCH_HOPS_PER_RANDOM;
    Phase::parallel_fp64(NEIGHBORHOOD_SEARCH, flops, bytes, random)
}

/// The linked-list grid build over `agents` agents: one scattered head
/// update each.
pub fn linked_list_build(agents: usize, parallel: bool) -> Phase {
    let n = agents as f64;
    let build = Phase::parallel_fp64(NEIGHBORHOOD_BUILD, 0.0, GRID_BUILD_BYTES_PER_AGENT * n, n);
    Phase { parallel, ..build }
}

/// The counting-sort CSR build over `members` agents (a shard's members
/// include its halo); a skipped incremental rebuild only streams the
/// voxel-key compare.
pub fn csr_build(members: usize, skipped: bool, parallel: bool) -> Phase {
    let (bytes, random) = match skipped {
        true => (CSR_BUILD_SKIP_BYTES_PER_AGENT, 0.0),
        false => (CSR_BUILD_BYTES_PER_AGENT, CSR_BUILD_RANDOM_PER_AGENT),
    };
    let m = members as f64;
    let build = Phase::parallel_fp64(NEIGHBORHOOD_BUILD, 0.0, bytes * m, random * m);
    Phase { parallel, ..build }
}

/// Which force pass ran: it picks the constants that price it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcePass {
    /// Cached kd neighbor lists (the v0.0.9 baseline's force pass).
    Lists,
    /// Fused pass over the linked-list grid.
    LinkedList,
    /// Fused voxel walk over the CSR grid, at this precision.
    Csr(Precision),
}

/// The force phase of `pass` over `agents` agents, from the sweep's
/// summed query counters and contacts.
pub fn forces(
    pass: ForcePass,
    agents: usize,
    counters: &QueryCounters,
    contacts: u64,
    parallel: bool,
) -> Phase {
    let n = agents as f64;
    let candidates = counters.points_tested as f64;
    let neighbors = counters.neighbors_found as f64;
    let boxes = counters.boxes_scanned as f64;
    let contacts = contacts as f64;
    let fused_flops = |per_candidate: f64| {
        per_candidate * candidates + UG_FLOPS_PER_CONTACT * contacts + UG_FIXED_FLOPS_PER_AGENT * n
    };
    let (flops, bytes, random_accesses) = match pass {
        ForcePass::Lists => (
            FORCE_FLOPS_PER_NEIGHBOR * neighbors + FORCE_FIXED_FLOPS_PER_AGENT * n,
            FORCE_BYTES_PER_NEIGHBOR * neighbors + FORCE_FIXED_BYTES_PER_AGENT * n,
            neighbors,
        ),
        ForcePass::LinkedList => (
            fused_flops(UG_FLOPS_PER_CANDIDATE),
            UG_BYTES_PER_CANDIDATE * candidates + UG_FIXED_BYTES_PER_AGENT * n,
            boxes,
        ),
        ForcePass::Csr(Precision::F64) => (
            fused_flops(CSR_FLOPS_PER_CANDIDATE),
            CSR_BYTES_PER_CANDIDATE * candidates + UG_FIXED_BYTES_PER_AGENT * n,
            CSR_RANDOM_PER_BOX * boxes,
        ),
        ForcePass::Csr(Precision::F32Simd) => (
            fused_flops(CSR_FLOPS_PER_CANDIDATE),
            SIMD_BYTES_PER_CANDIDATE * candidates + SIMD_FIXED_BYTES_PER_AGENT * n,
            CSR_RANDOM_PER_BOX * boxes,
        ),
    };
    Phase {
        name: MECHANICAL_FORCES,
        flops,
        bytes,
        random_accesses,
        parallel,
        fp64: pass != ForcePass::Csr(Precision::F32Simd),
    }
}

/// One storage sort ([`crate::ResourceManager::sort_storage`]) over
/// `agents` agents of which `moved` were gathered, under `name`
/// ([`REORDER`] or [`SHARD_SORT`]).
pub fn sort(name: &'static str, agents: usize, moved: u64, parallel: bool) -> Phase {
    let (n, moved) = (agents as f64, moved as f64);
    let bytes = SORT_BYTES_PER_AGENT * n + SORT_BYTES_PER_MOVED * moved;
    let sort = Phase::parallel_fp64(name, SORT_FLOPS_PER_AGENT * n, bytes, moved);
    Phase { parallel, ..sort }
}

/// The behaviors pass: `runs` behavior runs, `divisions` of them
/// divisions (one scattered append each).
pub fn behaviors(runs: u64, divisions: u64) -> Phase {
    let (runs, divisions) = (runs as f64, divisions as f64);
    let flops = BEHAVIOR_FLOPS_PER_RUN * runs + DIVISION_FLOPS * divisions;
    Phase::parallel_fp64(BEHAVIORS, flops, BEHAVIOR_BYTES_PER_RUN * runs, divisions)
}

/// The bound-space clamp over `agents` agents, `clamped` of them
/// written.
pub fn bound_space(agents: usize, clamped: u64) -> Phase {
    let n = agents as f64;
    let (flops, bytes) = (
        BOUND_SPACE_FLOPS_PER_AGENT * n,
        BOUND_SPACE_BYTES_PER_AGENT * n,
    );
    Phase::parallel_fp64(BOUND_SPACE, flops, bytes, clamped as f64)
}

/// One shard rebalance check over `agents` agents; a re-split costs one
/// dependent access.
pub fn shard_rebalance(agents: usize, resplit: bool) -> Phase {
    let n = agents as f64;
    let (flops, bytes) = (REBALANCE_FLOPS_PER_AGENT * n, REBALANCE_BYTES_PER_AGENT * n);
    Phase::parallel_fp64(SHARD_REBALANCE, flops, bytes, resplit as u64 as f64)
}

/// The in-place diffusion sweep that did `run`'s updates at `precision`.
pub fn diffusion(run: &DiffusionStats, precision: Precision) -> Phase {
    let (updates, interior) = (run.voxel_updates, run.interior_updates);
    let faces = (updates - interior) as f64;
    let words = DIFFUSION_INTERIOR_WORDS * interior as f64 + DIFFUSION_WALL_WORDS * faces;
    let fp64 = precision == Precision::F64;
    let word = if fp64 { 8.0 } else { 4.0 };
    let flops = DIFFUSION_FLOPS_PER_UPDATE * updates as f64;
    let sweep = Phase::parallel_fp64(DIFFUSION, flops, word * words, 0.0);
    Phase { fp64, ..sweep }
}

/// The out-of-place `f64` reference sweep over `run`'s updates: no reuse
/// credit, every voxel touches all its 8-byte words.
pub fn diffusion_reference(run: &DiffusionStats) -> Phase {
    let updates = run.voxel_updates as f64;
    let (flops, bytes) = (
        DIFFUSION_FLOPS_PER_UPDATE * updates,
        8.0 * DIFFUSION_WALL_WORDS * updates,
    );
    Phase::parallel_fp64(DIFFUSION_REFERENCE, flops, bytes, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase as its name, the bits of its three counters and its flags.
    fn bits(p: Phase) -> (&'static str, [u64; 3], bool, bool) {
        let counters = [p.flops, p.bytes, p.random_accesses].map(f64::to_bits);
        (p.name, counters, p.parallel, p.fp64)
    }

    /// Every pricing function, on one fixed input, against the bits the
    /// inline expressions it replaced gave (harvested from them).
    #[test]
    fn every_phase_prices_as_the_inline_expressions_did() {
        let kd = BuildStats {
            points: 12_345,
            nodes: 6_789,
            depth: 17,
        };
        let kd_queries = bdm_kdtree::QueryCounters {
            nodes_visited: 98_765,
            points_tested: 43_210,
            neighbors_found: 5_432,
        };
        let grid = QueryCounters {
            boxes_scanned: 333_333,
            points_tested: 543_210,
            neighbors_found: 87_654,
        };
        let force = |pass| forces(pass, 12_345, &grid, 45_678, true);
        let run = DiffusionStats {
            voxel_updates: 2_097_153,
            substeps: 4,
            interior_updates: 1_906_625,
            simd_rows: 0,
        };
        let build = NEIGHBORHOOD_BUILD;
        let cases = [
            (
                kd_build(&kd),
                (
                    build,
                    [0x41299e4800000000, 0x416336b600000000, 0x409a850000000000],
                    false,
                    true,
                ),
            ),
            (
                kd_search(&kd_queries),
                (
                    NEIGHBORHOOD_SEARCH,
                    [0x4115194000000000, 0x412fa5e000000000, 0x40e81cd000000000],
                    true,
                    true,
                ),
            ),
            (
                linked_list_build(12_345, false),
                (
                    build,
                    [0, 0x41269ab800000000, 0x40c81c8000000000],
                    false,
                    true,
                ),
            ),
            (
                csr_build(12_345, false, true),
                (
                    build,
                    [0, 0x4120939800000000, 0x40981c8000000000],
                    true,
                    true,
                ),
            ),
            (
                csr_build(12_345, true, false),
                (build, [0, 0x41181c8000000000, 0], false, true),
            ),
            (
                force(ForcePass::Lists),
                (
                    MECHANICAL_FORCES,
                    [0x4166135e00000000, 0x4162e01f00000000, 0x40f5666000000000],
                    true,
                    true,
                ),
            ),
            (
                force(ForcePass::LinkedList),
                (
                    MECHANICAL_FORCES,
                    [0x415dedc340000000, 0x417184f100000000, 0x4114585400000000],
                    true,
                    true,
                ),
            ),
            (
                force(ForcePass::Csr(Precision::F64)),
                (
                    MECHANICAL_FORCES,
                    [0x415dedc340000000, 0x4173976b80000000, 0x40fb207000000000],
                    true,
                    true,
                ),
            ),
            (
                force(ForcePass::Csr(Precision::F32Simd)),
                (
                    MECHANICAL_FORCES,
                    [0x415dedc340000000, 0x4165c20280000000, 0x40fb207000000000],
                    true,
                    false,
                ),
            ),
            (
                sort(REORDER, 12_345, 678, true),
                (
                    REORDER,
                    [0x41169ab800000000, 0x411dbd4000000000, 0x4085300000000000],
                    true,
                    true,
                ),
            ),
            (
                sort(SHARD_SORT, 12_345, 678, false),
                (
                    SHARD_SORT,
                    [0x41169ab800000000, 0x411dbd4000000000, 0x4085300000000000],
                    false,
                    true,
                ),
            ),
            (
                behaviors(23_456, 789),
                (
                    BEHAVIORS,
                    [0x411f85b000000000, 0x4136e80000000000, 0x4088a80000000000],
                    true,
                    true,
                ),
            ),
            (
                bound_space(12_345, 67),
                (
                    BOUND_SPACE,
                    [0x40f2156000000000, 0x4122156000000000, 0x4050c00000000000],
                    true,
                    true,
                ),
            ),
            (
                shard_rebalance(12_345, true),
                (
                    SHARD_REBALANCE,
                    [0x411e23a000000000, 0x4122156000000000, 0x3ff0000000000000],
                    true,
                    true,
                ),
            ),
            (
                diffusion(&run, Precision::F64),
                (
                    DIFFUSION,
                    [0x4183000098000000, 0x41845c6080000000, 0],
                    true,
                    true,
                ),
            ),
            (
                diffusion(&run, Precision::F32Simd),
                (
                    DIFFUSION,
                    [0x4183000098000000, 0x41745c6080000000, 0],
                    true,
                    false,
                ),
            ),
            (
                diffusion_reference(&run),
                (
                    DIFFUSION_REFERENCE,
                    [0x4183000098000000, 0x41a0000080000000, 0],
                    true,
                    true,
                ),
            ),
        ];
        for (k, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(bits(got), want, "case {k}: {got:?}");
        }
    }
}
