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
//! the chunks, and identical to a serial chunk-by-chunk execution. We
//! keep that recipe for births too, but drop their buffer (below).
//!
//! Semantics note: deferring secretions means every gradient read inside
//! one behaviors pass sees the substance field as of the *start* of the
//! step (a consistent snapshot), rather than a state that depends on how
//! many lower-indexed agents already secreted. That snapshot semantics
//! is what makes the loop order-independent — and therefore
//! parallelizable — in the first place.
//!
//! Births are not buffered here. A behaviors pass that may divide
//! (`ResourceManager::divisions`) reserves room in every agent column for
//! as many daughters as the agents' lists allow, and each chunk writes its
//! daughters straight into its own window of that room, its mothers'
//! uids beside them in the step buffer (`bdm_soa::StepBuffer`). The
//! pass's commit orders the daughters by `(mother uid, chunk, order within
//! the chunk)` — a strict total order — with a parallel radix argsort of
//! those uids, and gathers every column's tail into place: the stable
//! sort by mother uid of the chunk-ordered births, same-mother twins in
//! the order their mother's behaviors produced them. A context only
//! counts its chunk's divisions.
//!
//! Precision note: the same fixed-chunk discipline is what lets the
//! mixed-precision force pass (`SimParams::precision = F32Simd`, see
//! `crate::mech::simd_lanes`) stay bitwise deterministic —
//! its f32 lane packing and f64 lane-ordered reductions are functions of
//! the chunk geometry, never of thread scheduling — so every merge
//! performed here receives identical inputs across serial and parallel
//! execution at either precision.

use crate::diffusion::DiffusionGrid;
use crate::rm::ResourceManager;
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
/// and daughters' window (through [`crate::rm::AgentChunkMut`]) and
/// records everything else here; [`ExecutionContext::merge_in_order`]
/// applies the buffers to the shared state after the loop, in chunk
/// order.
#[derive(Debug, Default)]
pub struct ExecutionContext {
    /// Global indices of agents that die this step (ascending).
    deaths: Vec<usize>,
    /// Buffered substance writes (in discovery order).
    secretions: Vec<Secretion>,
    /// Behavior executions counted (profiling).
    pub behaviors_run: u64,
    /// Divisions performed (profiling).
    pub divisions: u64,
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

    /// Apply every chunk's deferred mutations to the shared state:
    ///
    /// 1. secretions (substance fields), sorted by secreting uid,
    /// 2. deaths (swap-removed highest-index-first so no pending death
    ///    index is invalidated by an earlier removal).
    ///
    /// The pass's daughters are already appended (`Divisions::commit`),
    /// so a death swap-removes across the grown population.
    ///
    /// Because the chunk partition is fixed and each buffer merges in a
    /// canonical order, the post-merge state is identical whether the
    /// chunks were processed serially or in parallel. Ordering
    /// secretions (and births) by **stable uid** rather than chunk /
    /// storage order additionally makes the merge invariant under the
    /// host reorder operation: permuting agent storage cannot change
    /// which uid a daughter receives or the floating-point order of
    /// substance deposits. In a population that has never been reordered
    /// and never lost an agent, storage order *is* ascending-uid order,
    /// so the sort is a stable no-op and legacy trajectories are
    /// unchanged.
    pub fn merge_in_order(
        contexts: Vec<ExecutionContext>,
        rm: &mut ResourceManager,
        substances: &mut [DiffusionGrid],
    ) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        let mut deaths: Vec<usize> = Vec::new();
        let mut secretions: Vec<Secretion> = Vec::new();
        for ctx in &contexts {
            out.behaviors_run += ctx.behaviors_run;
            out.divisions += ctx.divisions;
            secretions.extend_from_slice(&ctx.secretions);
            debug_assert!(ctx.deaths.windows(2).all(|w| w[0] <= w[1]));
            deaths.extend_from_slice(&ctx.deaths);
        }
        secretions.sort_by_key(|s| s.uid);
        for s in &secretions {
            substances[s.substance].secrete(s.position, s.rate);
        }
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
    use crate::behavior::Behavior;
    use crate::cell::CellBuilder;
    use crate::diffusion::{BoundaryCondition, DiffusionParams};
    use crate::rm::{AgentChunkMut, AgentRow};
    use bdm_math::Aabb;
    use bdm_soa::StepBuffer;

    fn cell(x: f64, d: f64) -> CellBuilder {
        CellBuilder::new(Vec3::new(x, 0.0, 0.0)).diameter(d)
    }

    /// `n` agents whose list lets each divide once a step.
    fn dividing(n: usize) -> ResourceManager {
        let mut rm = ResourceManager::new();
        for i in 0..n {
            rm.add(cell(i as f64, 1.0).behavior(Behavior::GrowthDivision {
                growth_rate: 0.0,
                division_threshold: 10.0,
            }));
        }
        rm
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

    /// One division pass over `cuts`, `body` per chunk; returns the
    /// contexts and the births the commit appended.
    fn pass(
        rm: &mut ResourceManager,
        cuts: &[usize],
        buffer: &mut StepBuffer,
        body: impl Fn(&mut AgentChunkMut<'_>) -> ExecutionContext,
    ) -> (Vec<ExecutionContext>, usize) {
        let mut divisions = rm.divisions(cuts, buffer);
        let (chunks, _shared) = divisions.chunks();
        let contexts = chunks.into_iter().map(|mut c| body(&mut c)).collect();
        (contexts, divisions.commit())
    }

    #[test]
    fn merge_applies_births_then_deaths() {
        let mut rm = dividing(6);
        let (contexts, births) = pass(&mut rm, &[0, 3, 6], &mut StepBuffer::default(), |c| {
            let mut ec = ExecutionContext::new();
            ec.behaviors_run = 3;
            if c.start() == 0 {
                // Chunk 0 (agents 0..3): agent 1 dies, one birth.
                ec.push_death(1);
                c.add_daughter(0, daughter(100.0, 2.0));
                ec.divisions = 1;
            } else {
                // Chunk 1 (agents 3..6): agents 4 and 5 die.
                ec.push_death(4);
                ec.push_death(5);
            }
            ec
        });
        assert_eq!(births, 1);
        let out = ExecutionContext::merge_in_order(contexts, &mut rm, &mut []);
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
        let mut rm = dividing(6);
        let (_, births) = pass(&mut rm, &[0, 3, 6], &mut StepBuffer::default(), |c| {
            let (mother, x) = if c.start() == 0 {
                (5, 105.0)
            } else {
                (2, 102.0)
            };
            c.add_daughter(mother, daughter(x, 1.0));
            ExecutionContext::new()
        });
        assert_eq!((births, rm.len()), (2, 8));
        // uid 6 goes to mother 2's daughter, uid 7 to mother 5's.
        assert_eq!((rm.uid(6), rm.position(6).x), (6, 102.0));
        assert_eq!((rm.uid(7), rm.position(7).x), (7, 105.0));
    }

    #[test]
    fn the_merge_sorts_its_keys_in_the_step_buffer() {
        let mut rm = dividing(3);
        // The sweep's view of three agents is nine words: room for the
        // three slots' keys and their two index arrays, so the pass
        // allocates none.
        let mut buffer = StepBuffer::default();
        buffer.vec3s(3).fill(Vec3::splat(f64::NAN));
        let (_, births) = pass(&mut rm, &[0, 2, 3], &mut buffer, |c| {
            if c.start() == 0 {
                c.add_daughter(1, daughter(101.0, 1.0));
                c.add_daughter(0, daughter(100.0, 1.0));
            } else {
                c.add_daughter(0, daughter(200.0, 1.0));
            }
            ExecutionContext::new()
        });
        assert_eq!((births, buffer.resident_bytes()), (3, 72));
        // Mother uid first, then chunk, then order within the chunk.
        let xs: Vec<f64> = (3..6).map(|i| rm.position(i).x).collect();
        assert_eq!(xs, [100.0, 200.0, 101.0]);
    }

    #[test]
    fn merges_leave_the_diameter_memo_to_the_views() {
        let mut rm = ResourceManager::new();
        rm.add(cell(0.0, 3.0));
        assert_eq!(rm.largest_diameter(), 3.0);
        let memo = |rm: &ResourceManager| (rm.attribute_stamp(), rm.diameter_scan_count());
        let before = memo(&rm);
        // A merge of contexts that wrote nothing keeps the memo.
        ExecutionContext::merge_in_order(vec![ExecutionContext::new()], &mut rm, &mut []);
        assert_eq!(rm.largest_diameter(), 3.0);
        assert_eq!(memo(&rm), before);
        // A view's diameter write reaches the next lookup; the merge
        // after it has nothing to add.
        let (mut chunks, _shared) = rm.behavior_chunks_at(&[0, 1]);
        chunks[0].set_diameter(0, 5.0);
        drop(chunks);
        assert_eq!(rm.largest_diameter(), 5.0);
        ExecutionContext::merge_in_order(vec![ExecutionContext::new()], &mut rm, &mut []);
        assert_eq!(rm.largest_diameter(), 5.0);
        assert_eq!(rm.diameter_scan_count(), before.1 + 1);
    }
}
