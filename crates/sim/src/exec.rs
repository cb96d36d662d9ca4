//! Per-thread execution contexts for parallel agent operations.
//!
//! BioDynaMo's follow-up platform paper ("High-Performance and Scalable
//! Agent-Based Simulation with BioDynaMo", 2023) makes agent loops
//! embarrassingly parallel by giving every worker an *execution context*
//! that buffers the mutations an agent may not apply directly while
//! other agents are being processed: births (division), deaths
//! (apoptosis), and writes to shared state (substance secretion). We
//! adopt the same architecture with the determinism recipe of the CSR
//! grid build: the agent range is cut into **fixed-size chunks**, one
//! context per chunk, and contexts are merged **in chunk order** — so
//! the trajectory is bitwise identical no matter how many threads ran
//! the chunks, and identical to a serial chunk-by-chunk execution.
//!
//! Semantics note: deferring secretions means every gradient read inside
//! one behaviors pass sees the substance field as of the *start* of the
//! step (a consistent snapshot), rather than a state that depends on how
//! many lower-indexed agents already secreted. That snapshot semantics
//! is what makes the loop order-independent — and therefore
//! parallelizable — in the first place.
//!
//! Births are plain data. A division buffers one `Copy` record — the
//! mother's uid and the daughter's [`AgentRow`], whose behavior list is
//! the mother's interned id, not a copy of her list: 56 bytes, no heap —
//! and the merge never moves those records. It sorts 16-byte `(mother
//! uid, chunk, index in chunk)` keys and hands the resource manager an
//! iterator that reads each record where its chunk left it, so the whole
//! wave is appended in one pass with every column grown once. The key is
//! a strict total order (no two births share a chunk *and* an index), so
//! `sort_unstable` has exactly one result: the stable sort by mother uid
//! of the chunk-ordered concatenation, same-mother twins in the order
//! their mother's behaviors produced them.
//!
//! Precision note: the same fixed-chunk discipline is what lets the
//! mixed-precision force pass (`SimParams::precision = F32Simd`, see
//! `crate::mech::simd_lanes`) stay bitwise deterministic —
//! its f32 lane packing and f64 lane-ordered reductions are functions of
//! the chunk geometry, never of thread scheduling — so every merge
//! performed here receives identical inputs across serial and parallel
//! execution at either precision.

use crate::diffusion::DiffusionGrid;
use crate::rm::{AgentRow, ResourceManager};
use bdm_math::Vec3;

/// One buffered secretion: (secreting agent, substance index, position,
/// amount).
#[derive(Debug, Clone, Copy)]
struct Secretion {
    uid: u64,
    substance: usize,
    position: Vec3<f64>,
    rate: f64,
}

/// Deferred mutations recorded by one chunk of an agent loop.
///
/// The loop body gets direct mutable access to its *own* agent's columns
/// (through [`crate::rm::AgentChunkMut`]) and records everything else
/// here; [`ExecutionContext::merge_in_order`] applies the buffers to the
/// shared state after the loop, in chunk order.
#[derive(Debug, Default)]
pub struct ExecutionContext {
    /// Daughters to append, tagged with their mother's stable uid. The
    /// merge sorts them by that uid, so daughter uid assignment depends
    /// only on agent *identity* — not on where the mothers happen to sit
    /// in storage — which keeps trajectories invariant under the host
    /// reorder operation.
    births: Vec<(u64, AgentRow)>,
    /// Global indices of agents that die this step (ascending).
    deaths: Vec<usize>,
    /// Buffered substance writes (in discovery order).
    secretions: Vec<Secretion>,
    /// Behavior executions counted (profiling).
    pub behaviors_run: u64,
    /// Divisions performed (profiling).
    pub divisions: u64,
    /// `true` when the chunk wrote any diameter through the raw views —
    /// the merge then invalidates the largest-diameter cache.
    diameters_written: bool,
}

/// Counters produced by merging all chunk contexts of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Total behavior executions.
    pub behaviors_run: u64,
    /// Total divisions (== births).
    pub divisions: u64,
    /// Total deaths applied.
    pub deaths: u64,
}

impl ExecutionContext {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer a new agent (division daughter of the mother with stable
    /// id `mother_uid`).
    pub fn push_birth(&mut self, mother_uid: u64, daughter: AgentRow) {
        self.births.push((mother_uid, daughter));
    }

    /// Make room for `additional` more births in one growth step. A
    /// division asks for as many as its chunk has agents left: in a wave
    /// every one of them divides too, so the first request is the
    /// chunk's only allocation and the later ones find the room there.
    pub fn reserve_births(&mut self, additional: usize) {
        self.births.reserve(additional);
    }

    /// Buffer the death of global agent `i`.
    pub fn push_death(&mut self, i: usize) {
        self.deaths.push(i);
    }

    /// Buffer a substance deposition at `position` by the agent with
    /// stable id `uid`.
    pub fn push_secretion(&mut self, uid: u64, substance: usize, position: Vec3<f64>, rate: f64) {
        self.secretions.push(Secretion {
            uid,
            substance,
            position,
            rate,
        });
    }

    /// Record that this chunk wrote diameters through the raw views.
    pub fn mark_diameter_write(&mut self) {
        self.diameters_written = true;
    }

    /// Apply every chunk's deferred mutations to the shared state:
    ///
    /// 1. secretions (substance fields), sorted by secreting uid,
    /// 2. births, sorted by mother uid (daughters take ascending indices
    ///    past the pre-pass population),
    /// 3. deaths (swap-removed highest-index-first so no pending death
    ///    index is invalidated by an earlier removal).
    ///
    /// Because the chunk partition is fixed and each buffer merges in a
    /// canonical order, the post-merge state is identical whether the
    /// chunks were processed serially or in parallel. Ordering
    /// secretions and births by **stable uid** (rather than chunk /
    /// storage order) additionally makes the merge invariant under the
    /// host reorder operation: permuting agent storage cannot change
    /// which uid a daughter receives or the floating-point order of
    /// substance deposits. In a population that has never been reordered
    /// and never lost an agent, storage order *is* ascending-uid order,
    /// so both sorts are stable no-ops and legacy trajectories are
    /// unchanged.
    pub fn merge_in_order(
        contexts: Vec<ExecutionContext>,
        rm: &mut ResourceManager,
        substances: &mut [DiffusionGrid],
    ) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        let mut deaths: Vec<usize> = Vec::new();
        let mut secretions: Vec<Secretion> = Vec::new();
        let mut any_diameters = false;
        for ctx in &contexts {
            out.behaviors_run += ctx.behaviors_run;
            out.divisions += ctx.divisions;
            any_diameters |= ctx.diameters_written;
            secretions.extend_from_slice(&ctx.secretions);
            debug_assert!(ctx.deaths.windows(2).all(|w| w[0] <= w[1]));
            deaths.extend_from_slice(&ctx.deaths);
        }
        secretions.sort_by_key(|s| s.uid);
        for s in &secretions {
            substances[s.substance].secrete(s.position, s.rate);
        }
        if any_diameters {
            rm.invalidate_largest_diameter();
        }
        let births: usize = contexts.iter().map(|ctx| ctx.births.len()).sum();
        assert!(births <= u32::MAX as usize, "{births} births in one step");
        let mut order: Vec<(u64, u32, u32)> = Vec::with_capacity(births);
        for (c, ctx) in contexts.iter().enumerate() {
            let keys = ctx.births.iter().enumerate();
            order.extend(keys.map(|(k, &(mother, _))| (mother, c as u32, k as u32)));
        }
        order.sort_unstable();
        let row = |&(_, c, k): &(u64, u32, u32)| contexts[c as usize].births[k as usize].1;
        rm.append(order.iter().map(row));
        // Chunks contribute ascending, disjoint index ranges, so the
        // concatenation is already globally sorted; dedup guards against
        // an agent carrying several death-producing behaviors.
        debug_assert!(deaths.windows(2).all(|w| w[0] <= w[1]));
        deaths.dedup();
        out.deaths = deaths.len() as u64;
        for &i in deaths.iter().rev() {
            rm.remove(i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellBuilder;
    use crate::diffusion::{BoundaryCondition, DiffusionParams};
    use bdm_math::Aabb;

    fn cell(x: f64, d: f64) -> CellBuilder {
        CellBuilder::new(Vec3::new(x, 0.0, 0.0)).diameter(d)
    }

    /// A daughter at `x` carrying the empty list.
    fn daughter(x: f64, d: f64) -> AgentRow {
        AgentRow {
            position: Vec3::new(x, 0.0, 0.0),
            diameter: d,
            adherence: 0.4,
            behaviors: 0,
        }
    }

    #[test]
    fn merge_applies_births_then_deaths() {
        let mut rm = ResourceManager::new();
        for i in 0..6 {
            rm.add(cell(i as f64, 1.0));
        }
        // Chunk 0 (agents 0..3): agent 1 dies, one birth.
        let mut c0 = ExecutionContext::new();
        c0.push_death(1);
        c0.push_birth(0, daughter(100.0, 2.0));
        c0.divisions = 1;
        c0.behaviors_run = 3;
        // Chunk 1 (agents 3..6): agents 4 and 5 die.
        let mut c1 = ExecutionContext::new();
        c1.push_death(4);
        c1.push_death(5);
        c1.behaviors_run = 3;
        let out = ExecutionContext::merge_in_order(vec![c0, c1], &mut rm, &mut []);
        assert_eq!(out.behaviors_run, 6);
        assert_eq!(out.divisions, 1);
        assert_eq!(out.deaths, 3);
        // 6 agents + 1 birth − 3 deaths.
        assert_eq!(rm.len(), 4);
        // The birth was appended (index 6) *before* deaths were applied,
        // exactly like the serial loop: removing 5 swaps the daughter in.
        let xs: Vec<f64> = (0..rm.len()).map(|i| rm.position(i).x).collect();
        assert!(xs.contains(&100.0), "daughter survived the death sweep");
        assert!(!xs.contains(&1.0) && !xs.contains(&4.0) && !xs.contains(&5.0));
    }

    #[test]
    fn merge_dedups_double_deaths() {
        let mut rm = ResourceManager::new();
        rm.add(cell(0.0, 1.0));
        rm.add(cell(1.0, 1.0));
        let mut c = ExecutionContext::new();
        // Two death-producing behaviors on the same agent.
        c.push_death(0);
        c.push_death(0);
        let out = ExecutionContext::merge_in_order(vec![c], &mut rm, &mut []);
        assert_eq!(out.deaths, 1);
        assert_eq!(rm.len(), 1);
    }

    #[test]
    fn merge_applies_secretions_in_chunk_order() {
        let mut rm = ResourceManager::new();
        let space = Aabb::cube(10.0);
        let mut grids = [DiffusionGrid::new(
            DiffusionParams {
                name: "s",
                coefficient: 0.1,
                decay: 0.0,
                resolution: 4,
                boundary: BoundaryCondition::Closed,
            },
            space,
        )];
        let mut c0 = ExecutionContext::new();
        c0.push_secretion(0, 0, Vec3::zero(), 2.0);
        let mut c1 = ExecutionContext::new();
        c1.push_secretion(1, 0, Vec3::new(5.0, 5.0, 5.0), 3.0);
        ExecutionContext::merge_in_order(vec![c0, c1], &mut rm, &mut grids);
        assert!((grids[0].total_mass() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn births_merge_in_mother_uid_order_not_chunk_order() {
        // Mothers discovered in chunk order 5, 2 (e.g. because storage
        // was reordered): daughters must still append in mother-uid
        // order, so the reorder cannot change uid assignment.
        let mut rm = ResourceManager::new();
        for i in 0..6 {
            rm.add(cell(i as f64, 1.0));
        }
        let mut c0 = ExecutionContext::new();
        c0.push_birth(5, daughter(105.0, 1.0));
        let mut c1 = ExecutionContext::new();
        c1.push_birth(2, daughter(102.0, 1.0));
        ExecutionContext::merge_in_order(vec![c0, c1], &mut rm, &mut []);
        assert_eq!(rm.len(), 8);
        // uid 6 goes to mother 2's daughter, uid 7 to mother 5's.
        assert_eq!((rm.uid(6), rm.position(6).x), (6, 102.0));
        assert_eq!((rm.uid(7), rm.position(7).x), (7, 105.0));
    }

    #[test]
    fn merge_invalidates_diameter_cache_only_when_written() {
        let mut rm = ResourceManager::new();
        rm.add(cell(0.0, 3.0));
        assert_eq!(rm.largest_diameter(), 3.0);
        // No diameter writes: the cache survives the merge.
        ExecutionContext::merge_in_order(vec![ExecutionContext::new()], &mut rm, &mut []);
        assert_eq!(rm.largest_diameter(), 3.0);
        // A chunk that wrote diameters forces invalidation.
        let (mut chunks, _shared) = rm.behavior_chunks(8);
        chunks[0].set_diameter(0, 5.0);
        drop(chunks);
        let mut c = ExecutionContext::new();
        c.mark_diameter_write();
        ExecutionContext::merge_in_order(vec![c], &mut rm, &mut []);
        assert_eq!(rm.largest_diameter(), 5.0);
    }
}
