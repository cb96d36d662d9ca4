//! Extracellular substance diffusion.
//!
//! "Operations that are independent of the agents, such as extracellular
//! substance diffusion, are integral to biological systems … With
//! BioDynaMo we can simulate the extracellular substance diffusion
//! efficiently on a multi-core CPU, independently from the GPU
//! operations" (§II). This module provides that CPU-side substrate:
//! an explicit-Euler finite-difference solver for
//! `∂c/∂t = D ∇²c − μ c` on a regular grid over the simulation space,
//! with closed (zero-flux) or absorbing (Dirichlet-zero) boundaries.
//!
//! # The in-place sweep
//!
//! A field is **one** lattice: a sub-step updates it in place and is
//! still exactly a Jacobi step. The lattice is cut into contiguous
//! z-slabs (none thinner than eight planes), one rayon task each: two
//! per worker for a grid swept alone, one for a grid swept inline by the
//! worker of a batch (`step_all`). Before the fork, the old plane below
//! and the old plane above every slab are copied into a window of planes
//! the step buffer lends (at a z-wall the slab's own wall plane — the
//! zero-flux mirror).
//! Inside a slab the planes are visited in ascending z: new plane `z` is
//! computed from the three **old** planes `z−1`, `z`, `z+1` into a
//! two-plane ring, and plane `z−1` is written back only once plane `z`
//! is done. So every read — in the slab, whose plane `z−1` is still
//! unwritten when plane `z` needs it, and across slab edges, which read
//! the snapshots — sees pre-sweep values, and *where* the slabs are cut
//! cannot show in a single bit. Per task the hot set is three input
//! planes and the two ring planes (640 KB at 128², f64).
//!
//! A field owns its lattice and nothing of the sweep: the ring and halo
//! planes are a window of the step's [`StepBuffer`], one per grid swept
//! at once and handed from a pool the way the force sweep hands out its
//! lane scratches. A batch of four 128³ fields on two workers borrows
//! two windows of three planes, 786,432 bytes, where each field used to
//! keep its own six. [`DiffusionGrid::step_in`] lends itself a transient
//! buffer. The window's contents never reach a result: a sweep writes
//! every plane it reads before reading it.
//!
//! One plane kernel does the work: the wall rows, wall columns and the
//! two whole z-wall planes go through the branchy `Stencil::cell`
//! (mirror at closed walls, zero at Dirichlet walls), every interior row
//! through `Stencil::row` — a plain indexed loop over seven equal-length
//! slices that the compiler vectorises at whatever width the target has.
//! Both evaluate the one expression tree of `Stencil::update`, divisions
//! included, per element in IEEE arithmetic, so the field is bitwise what
//! the retained out-of-place reference ([`DiffusionGrid::step_reference`])
//! computes — proptested in `tests/diffusion_parity.rs`, which also pins
//! fields harvested from the double-buffered engine this one replaced.
//! The reference sweeps into its own lazily sized buffer, which the
//! production path never allocates: an oracle that shared the sweep's
//! scratch or driver would share its bugs.
//!
//! # Stability sub-cycling
//!
//! Explicit Euler diverges when `D·dt·(1/h²x + 1/h²y + 1/h²z) > 1/2`.
//! Instead of a debug-only assert, [`DiffusionGrid::step`] splits `dt`
//! into the minimal number of sub-steps satisfying the stricter
//! `D·dt_sub·Σ1/h² ≤ 1/6` bound, so stiff coefficients are integrated
//! correctly in release builds. Stable configurations take exactly one
//! sub-step, preserving pre-sub-cycling trajectories bit for bit.
//! Sub-cycling is derived state: nothing about it is checkpointed.
//!
//! # Precision
//!
//! An opt-in f32 path (`SimParams::precision = F32Simd`) narrows the
//! field into a persistent `f32` lattice once per `step`, runs all
//! sub-steps on it in place through the same generic sweep, and widens
//! back once. The f32→f64→f32 round trip is exact, so the path is
//! deterministic; its accuracy envelope is gated by
//! `tests/diffusion_solver.rs` analytic-tolerance tests.

use crate::param::Precision;
use bdm_math::simd::LANES;
use bdm_math::{Aabb, Scalar, Vec3};
use bdm_soa::StepBuffer;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes between two lattice writes of [`fault_in`]: the page size, or a
/// divisor of it.
const PAGE_BYTES: usize = 4096;

// `fault_in` addresses an `f64` as an `AtomicU64`.
const _: () = assert!(std::mem::align_of::<f64>() >= std::mem::align_of::<AtomicU64>());

/// Write-fault every page of every lattice that has not been faulted yet,
/// forked over the grids; the step calls it before its first operation.
///
/// A new lattice is zero pages the allocator has not mapped yet. Left to
/// itself, the first step's chemotaxis maps them by *reading* the shared
/// zero page, and the sweep then copy-on-write faults each one again.
/// One write per page first makes that one fault, taken in parallel.
/// The write is a `lock cmpxchg` of 0 for 0 on one word per page: it
/// changes no value (a word that is not 0 stays what it is), yet it is a
/// store to the page. An idempotent read-modify-write (`fetch_or(0)`)
/// would not do: it compiles to a fenced load.
pub(crate) fn fault_in(grids: &mut [DiffusionGrid]) {
    if grids.iter().all(|g| g.faulted) {
        return;
    }
    grids.par_iter_mut().for_each(|g| {
        if !g.faulted {
            for word in g.c.iter_mut().step_by(PAGE_BYTES / 8) {
                // SAFETY: `word` is a live, exclusively borrowed `f64`,
                // aligned for an `AtomicU64` (asserted above), and no
                // other access to it exists while the atomic view does.
                let word = unsafe { AtomicU64::from_ptr((word as *mut f64).cast()) };
                let _ = word.compare_exchange(0, 0, Ordering::Relaxed, Ordering::Relaxed);
            }
            g.faulted = true;
        }
    });
}

/// Boundary handling of the diffusion grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryCondition {
    /// Zero-flux walls: substance stays inside (mass conserved when the
    /// decay constant is zero).
    Closed,
    /// Absorbing walls: concentration pinned to zero at the boundary.
    Dirichlet,
}

/// Parameters of one substance.
#[derive(Debug, Clone, Copy)]
pub struct DiffusionParams {
    /// Human-readable substance name.
    pub name: &'static str,
    /// Diffusion coefficient D.
    pub coefficient: f64,
    /// First-order decay constant μ.
    pub decay: f64,
    /// Grid resolution per axis (`res³` voxels).
    pub resolution: usize,
    /// Boundary behavior.
    pub boundary: BoundaryCondition,
}

impl DiffusionParams {
    /// A typical oxygen-like substance on a 32³ lattice.
    pub fn oxygen() -> Self {
        Self {
            name: "oxygen",
            coefficient: 0.05,
            decay: 0.0,
            resolution: 32,
            boundary: BoundaryCondition::Closed,
        }
    }

    /// Reject configurations the solver cannot integrate: non-finite or
    /// negative `coefficient`/`decay`, and lattices below 2³ (a stencil
    /// needs at least two voxels per axis). This replaces the old
    /// silent `resolution.max(2)` clamp and debug-only stability assert
    /// — stability itself is handled by sub-cycling, not rejection.
    pub fn validate(&self) -> Result<(), String> {
        if !self.coefficient.is_finite() || self.coefficient < 0.0 {
            return Err(format!(
                "substance '{}': diffusion coefficient must be finite and \
                 non-negative (got {})",
                self.name, self.coefficient
            ));
        }
        if !self.decay.is_finite() || self.decay < 0.0 {
            return Err(format!(
                "substance '{}': decay constant must be finite and \
                 non-negative (got {})",
                self.name, self.decay
            ));
        }
        if self.resolution < 2 {
            return Err(format!(
                "substance '{}': resolution must be at least 2 (got {})",
                self.name, self.resolution
            ));
        }
        Ok(())
    }
}

/// Cumulative solver telemetry. Derived state: it is never
/// checkpointed, and restore starts it from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffusionStats {
    /// Voxel updates performed (voxels × sub-steps).
    pub voxel_updates: u64,
    /// Stability sub-steps executed.
    pub substeps: u64,
    /// Voxel updates that went through the branch-free row kernel (the
    /// rest are wall voxels, updated by the branchy cell).
    pub interior_updates: u64,
    /// Interior x-rows at least one full 8-lane vector long
    /// (`resolution ≥ LANES + 2`).
    pub simd_rows: u64,
}

impl DiffusionStats {
    /// Fraction of voxel updates handled by the branch-free interior.
    pub fn interior_fraction(&self) -> f64 {
        if self.voxel_updates == 0 {
            0.0
        } else {
            self.interior_updates as f64 / self.voxel_updates as f64
        }
    }

    /// Both runs' counts together.
    pub(crate) fn plus(self, run: DiffusionStats) -> DiffusionStats {
        DiffusionStats {
            voxel_updates: self.voxel_updates + run.voxel_updates,
            substeps: self.substeps + run.substeps,
            interior_updates: self.interior_updates + run.interior_updates,
            simd_rows: self.simd_rows + run.simd_rows,
        }
    }
}

/// Planes of sweep window per slab: the two-plane ring — whose second
/// plane starts a sweep holding the old plane below the slab, which is
/// read before the ring first wraps onto it — and the old plane above.
const SLAB_SCRATCH: usize = 3;
/// Fewest planes a slab is cut to (lattices with fewer are one slab).
/// Every slab costs `SLAB_SCRATCH` planes of memory and two plane copies
/// before the fork, so this bounds the window at 3/8 of the lattice and
/// the serial prologue at a quarter of its bytes on any worker count.
const MIN_SLAB_PLANES: usize = 8;

/// A sweep's window of planes, at the precision it sweeps in.
enum Window<'a> {
    F64(&'a mut [f64]),
    F32(&'a mut [f32]),
}

/// Step every grid of a batch by `dt` at `precision`, forked over the
/// grids; returns the sum of the grids' runs. A lone grid on several
/// workers forks two slabs per worker; otherwise each grid is swept
/// inline by the worker that took it, as one slab, and at most one grid
/// per worker is swept at once. Every sweep borrows its window from
/// `buffer` (see the module docs).
pub(crate) fn step_all(
    grids: &mut [DiffusionGrid],
    dt: f64,
    precision: Precision,
    buffer: &mut StepBuffer,
) -> DiffusionStats {
    let workers = rayon::current_num_threads();
    // Two slabs on one worker would even nothing out and cost three
    // more planes; none is thinner than `MIN_SLAB_PLANES`.
    let lone = grids.len() == 1 && workers > 1;
    let slabs = if lone { 2 * workers } else { 1 };
    let cut = |g: &DiffusionGrid| slabs.min(g.res / MIN_SLAB_PLANES).max(1);
    let len = grids.iter().map(|g| cut(g) * SLAB_SCRATCH * g.res * g.res);
    let (count, len) = (grids.len().min(workers), len.max().unwrap_or(0));
    let windows: Vec<Window> = match precision {
        Precision::F64 => buffer.windows(count, len).map(Window::F64).collect(),
        Precision::F32Simd => buffer.windows(count, len).map(Window::F32).collect(),
    };
    let pool = std::sync::Mutex::new(windows);
    const POISONED: &str = "a sweep panicked holding the window pool";
    let take = || pool.lock().expect(POISONED).pop();
    grids
        .par_iter_mut()
        .map(|g| {
            // Which window a grid gets depends on the schedule; what is
            // in it never reaches a result.
            let mut window = take().expect("no more grids at once than workers");
            let run = g.advance(dt, &mut window, cut(g));
            pool.lock().expect(POISONED).push(window);
            run
        })
        .reduce(DiffusionStats::default, DiffusionStats::plus)
}

/// One sub-step's constants at the sweep's precision, and the kernels
/// over them — generic, so the f64 and f32 paths are one source.
struct Stencil<T> {
    res: usize,
    h2: [T; 3],
    d: T,
    decay: T,
    dt: T,
    dirichlet: bool,
}

impl<T: Scalar> Stencil<T> {
    /// The explicit-Euler update of one voxel from its six neighbors
    /// `[x−, x+, y−, y+, z−, z+]`: the engine's only expression tree.
    #[inline(always)]
    fn update(&self, here: T, [xm, xp, ym, yp, zm, zp]: [T; 6]) -> T {
        let lap = (xm + xp - T::TWO * here) / self.h2[0]
            + (ym + yp - T::TWO * here) / self.h2[1]
            + (zm + zp - T::TWO * here) / self.h2[2];
        here + self.dt * (self.d * lap - self.decay * here)
    }

    /// Voxel `(x, y)` of plane `cur` with every wall test spelled out:
    /// zero on a Dirichlet wall, the voxel itself as the neighbor beyond
    /// a closed x- or y-wall. `zm` / `zp` are the planes below and above;
    /// on a z-wall plane (`z_wall`) the caller passes `cur`, or a copy of
    /// it, for the one that does not exist.
    #[inline(always)]
    fn cell(&self, [zm, cur, zp]: [&[T]; 3], x: usize, y: usize, z_wall: bool) -> T {
        let res = self.res;
        let on_wall = z_wall || x == 0 || y == 0 || x + 1 == res || y + 1 == res;
        if self.dirichlet && on_wall {
            return T::ZERO;
        }
        let i = y * res + x;
        let here = cur[i];
        let xm = if x == 0 { here } else { cur[i - 1] };
        let xp = if x + 1 == res { here } else { cur[i + 1] };
        let ym = if y == 0 { here } else { cur[i - res] };
        let yp = if y + 1 == res { here } else { cur[i + res] };
        self.update(here, [xm, xp, ym, yp, zm[i], zp[i]])
    }

    /// One interior x-row: `out[i]` from `here[i]` and the six neighbor
    /// rows. All eight slices have `out`'s length; re-slicing them to it
    /// up front is what leaves the loop without a bounds check.
    fn row(&self, out: &mut [T], [xm, here, xp, ym, yp, zm, zp]: [&[T]; 7]) {
        let n = out.len();
        let (xm, here, xp) = (&xm[..n], &here[..n], &xp[..n]);
        let (ym, yp, zm, zp) = (&ym[..n], &yp[..n], &zm[..n], &zp[..n]);
        for i in 0..n {
            out[i] = self.update(here[i], [xm[i], xp[i], ym[i], yp[i], zm[i], zp[i]]);
        }
    }

    /// The new values of plane `cur` into `out`, from the old planes
    /// `[below, cur, above]`. Returns the rows that went through
    /// [`Self::row`].
    fn plane(&self, out: &mut [T], planes: [&[T]; 3], z_wall: bool) -> u64 {
        let res = self.res;
        let [zm, cur, zp] = planes;
        let mut rows = 0;
        for y in 0..res {
            let b = y * res;
            if z_wall || y == 0 || y + 1 == res {
                for x in 0..res {
                    out[b + x] = self.cell(planes, x, y, z_wall);
                }
                continue;
            }
            out[b] = self.cell(planes, 0, y, false);
            out[b + res - 1] = self.cell(planes, res - 1, y, false);
            // The voxels between the x-walls, and their neighbor rows.
            let (lo, hi) = (b + 1, b + res - 1);
            let inputs = [
                &cur[lo - 1..hi - 1],
                &cur[lo..hi],
                &cur[lo + 1..hi + 1],
                &cur[lo - res..hi - res],
                &cur[lo + res..hi + res],
                &zm[lo..hi],
                &zp[lo..hi],
            ];
            self.row(&mut out[lo..hi], inputs);
            rows += 1;
        }
        rows
    }

    /// One in-place Jacobi sub-step of the lattice `c`, cut into at most
    /// `slabs` slabs of `ceil(res / slabs)` planes, whose ring and halo
    /// planes are the first [`SLAB_SCRATCH`] planes per slab of `window`
    /// (see the module docs). Returns the interior rows swept.
    fn sweep(&self, c: &mut [T], window: &mut [T], slabs: usize) -> u64 {
        let res = self.res;
        let sz = res * res;
        let depth = res.div_ceil(slabs);
        let window = &mut window[..res.div_ceil(depth) * SLAB_SCRATCH * sz];
        for (s, halo) in window.chunks_mut(SLAB_SCRATCH * sz).enumerate() {
            // Clamped at the z-walls: the wall plane is its own neighbor.
            let below = (s * depth).saturating_sub(1);
            let above = ((s + 1) * depth).min(res - 1);
            halo[sz..2 * sz].copy_from_slice(&c[below * sz..(below + 1) * sz]);
            halo[2 * sz..].copy_from_slice(&c[above * sz..(above + 1) * sz]);
        }
        c.par_chunks_mut(depth * sz)
            .zip(window.par_chunks_mut(SLAB_SCRATCH * sz))
            .enumerate()
            .map(|(s, (slab, window))| {
                let (ring, above) = window.split_at_mut(2 * sz);
                // `out` takes the new plane dz while `held` still holds
                // the new plane dz − 1 (before dz = 0: the old plane
                // below the slab).
                let (mut out, mut held) = ring.split_at_mut(sz);
                let last = slab.len() / sz - 1;
                let mut rows = 0;
                for dz in 0..=last {
                    let at = |dz: usize| &slab[dz * sz..(dz + 1) * sz];
                    let zm = if dz == 0 { &*held } else { at(dz - 1) };
                    let zp = if dz == last { &*above } else { at(dz + 1) };
                    let z = s * depth + dz;
                    rows += self.plane(out, [zm, at(dz), zp], z == 0 || z + 1 == res);
                    if dz > 0 {
                        slab[(dz - 1) * sz..dz * sz].copy_from_slice(held);
                    }
                    std::mem::swap(&mut out, &mut held);
                }
                slab[last * sz..].copy_from_slice(held);
                rows
            })
            .sum()
    }
}

/// A regular-lattice substance concentration field.
#[derive(Debug, Clone)]
pub struct DiffusionGrid {
    params: DiffusionParams,
    space: Aabb<f64>,
    res: usize,
    voxel_len: Vec3<f64>,
    /// Concentrations, x-major: the field's only lattice.
    c: Vec<f64>,
    /// The narrowed lattice of the `Precision::F32Simd` path, sized on
    /// first use. Derived state, like every buffer below: never
    /// checkpointed.
    c32: Vec<f32>,
    /// Output lattice of [`DiffusionGrid::step_reference`], sized on
    /// first use; the production path never touches it.
    oracle: Vec<f64>,
    /// Cumulative solver telemetry (derived state).
    stats: DiffusionStats,
    /// `true` once [`fault_in`] has written every page of `c`.
    faulted: bool,
}

impl DiffusionGrid {
    /// Create a zero-initialized field over `space`.
    ///
    /// # Panics
    /// On parameters [`DiffusionParams::validate`] rejects — matching
    /// the `Simulation::new` convention for invalid `SimParams`.
    pub fn new(params: DiffusionParams, space: Aabb<f64>) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid DiffusionParams: {msg}");
        }
        let n = params.resolution.pow(3);
        Self::build(params, space, vec![0.0; n])
    }

    fn build(params: DiffusionParams, space: Aabb<f64>, c: Vec<f64>) -> Self {
        let res = params.resolution;
        let e = space.extents();
        Self {
            params,
            space,
            res,
            voxel_len: Vec3::new(e.x / res as f64, e.y / res as f64, e.z / res as f64),
            c,
            c32: Vec::new(),
            oracle: Vec::new(),
            stats: DiffusionStats::default(),
            faulted: false,
        }
    }

    /// Rebuild a grid from exported state — the checkpoint import path.
    /// The parameters must pass [`DiffusionParams::validate`] and the
    /// concentration column must have exactly `resolution³` entries;
    /// anything else is rejected rather than silently reshaped. `c` is
    /// adopted as the lattice, not copied.
    pub fn from_parts(
        params: DiffusionParams,
        space: Aabb<f64>,
        c: Vec<f64>,
    ) -> Result<Self, String> {
        params.validate()?;
        let res = params.resolution;
        if res.checked_pow(3) != Some(c.len()) {
            return Err(format!(
                "substance '{}': {} concentration values for a {res}³ lattice",
                params.name,
                c.len(),
            ));
        }
        Ok(Self::build(params, space, c))
    }

    /// Substance parameters.
    pub fn params(&self) -> &DiffusionParams {
        &self.params
    }

    /// The raw concentration column, x-major (checkpoint export; the
    /// f32 staging, the oracle buffer and stats are derived state and
    /// never exported).
    pub fn concentrations(&self) -> &[f64] {
        &self.c
    }

    /// Lattice resolution per axis.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Number of voxels.
    pub fn num_voxels(&self) -> usize {
        self.c.len()
    }

    /// Cumulative solver telemetry since construction (or restore).
    pub fn stats(&self) -> &DiffusionStats {
        &self.stats
    }

    /// Heap bytes this field holds, by capacity: the lattice, the f32
    /// staging and the reference oracle's buffer. The sweep's planes are
    /// the step buffer's.
    pub fn resident_bytes(&self) -> usize {
        8 * (self.c.capacity() + self.oracle.capacity()) + 4 * self.c32.capacity()
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.res + y) * self.res + x
    }

    /// Voxel coordinates of a position (clamped into the lattice).
    #[inline]
    pub fn voxel_of(&self, p: Vec3<f64>) -> [usize; 3] {
        let rel = p - self.space.min;
        let co = |v: f64, len: f64| -> usize {
            if len <= 0.0 {
                return 0;
            }
            ((v / len).floor().max(0.0) as usize).min(self.res - 1)
        };
        [
            co(rel.x, self.voxel_len.x),
            co(rel.y, self.voxel_len.y),
            co(rel.z, self.voxel_len.z),
        ]
    }

    /// Concentration at a position. Positions outside the simulation
    /// space have no concentration and read 0 (they used to clamp to the
    /// nearest boundary voxel and report its value).
    pub fn concentration_at(&self, p: Vec3<f64>) -> f64 {
        if !self.space.contains(p) {
            return 0.0;
        }
        let [x, y, z] = self.voxel_of(p);
        self.c[self.idx(x, y, z)]
    }

    /// Set every voxel to `concentration` (initial conditions).
    pub fn fill(&mut self, concentration: f64) {
        self.c.fill(concentration);
    }

    /// Add `amount` at the voxel containing `p` (secretion). Returns
    /// `false` — depositing nothing — when `p` lies outside the
    /// simulation space: silently clamping an out-of-space secreter into
    /// a boundary voxel would pile its entire output onto the wall,
    /// which is a modeling artifact, not physics.
    pub fn secrete(&mut self, p: Vec3<f64>, amount: f64) -> bool {
        if !self.space.contains(p) {
            return false;
        }
        let [x, y, z] = self.voxel_of(p);
        let i = self.idx(x, y, z);
        self.c[i] += amount;
        true
    }

    /// Central-difference concentration gradient at a position.
    ///
    /// Positions outside the simulation space have no field and read
    /// `Vec3::ZERO`, matching [`DiffusionGrid::concentration_at`]'s
    /// out-of-space contract (they used to clamp to boundary voxels and
    /// report wall gradients).
    pub fn gradient_at(&self, p: Vec3<f64>) -> Vec3<f64> {
        if !self.space.contains(p) {
            return Vec3::zero();
        }
        let [x, y, z] = self.voxel_of(p);
        let sample = |xx: isize, yy: isize, zz: isize| -> f64 {
            let cx = xx.clamp(0, self.res as isize - 1) as usize;
            let cy = yy.clamp(0, self.res as isize - 1) as usize;
            let cz = zz.clamp(0, self.res as isize - 1) as usize;
            self.c[self.idx(cx, cy, cz)]
        };
        let (x, y, z) = (x as isize, y as isize, z as isize);
        Vec3::new(
            (sample(x + 1, y, z) - sample(x - 1, y, z)) / (2.0 * self.voxel_len.x),
            (sample(x, y + 1, z) - sample(x, y - 1, z)) / (2.0 * self.voxel_len.y),
            (sample(x, y, z + 1) - sample(x, y, z - 1)) / (2.0 * self.voxel_len.z),
        )
    }

    fn h2(&self) -> [f64; 3] {
        [
            self.voxel_len.x * self.voxel_len.x,
            self.voxel_len.y * self.voxel_len.y,
            self.voxel_len.z * self.voxel_len.z,
        ]
    }

    /// Number of stability sub-steps [`DiffusionGrid::step`] will take
    /// for `dt`: the minimal `n` with
    /// `D·(dt/n)·(1/h²x + 1/h²y + 1/h²z) ≤ 1/6` (a 3× margin under the
    /// explicit-Euler divergence threshold of 1/2). Stable
    /// configurations return 1, preserving pre-sub-cycling trajectories
    /// bit for bit.
    pub fn substeps_for(&self, dt: f64) -> u32 {
        let h2 = self.h2();
        let sum = 1.0 / h2[0] + 1.0 / h2[1] + 1.0 / h2[2];
        let n = (6.0 * self.params.coefficient * dt.max(0.0) * sum).ceil();
        if n > 1.0 {
            n as u32
        } else {
            1
        }
    }

    /// One sub-step's constants for a sub-step of `dt_sub`, narrowed to
    /// the sweep's precision.
    fn stencil<T: Scalar>(&self, dt_sub: f64) -> Stencil<T> {
        Stencil {
            res: self.res,
            h2: self.h2().map(T::from_f64),
            d: T::from_f64(self.params.coefficient),
            decay: T::from_f64(self.params.decay),
            dt: T::from_f64(dt_sub),
            dirichlet: self.params.boundary == BoundaryCondition::Dirichlet,
        }
    }

    /// Advance the field by `dt` with the in-place sweep at the default
    /// f64 precision, sub-cycling as required for stability. Returns the
    /// number of voxel updates (voxels × sub-steps — the work counter
    /// for the CPU timing model).
    pub fn step(&mut self, dt: f64) -> u64 {
        self.step_in(dt, Precision::F64).voxel_updates
    }

    /// Advance the field by `dt` at the given precision; returns this
    /// run's telemetry (also accumulated into
    /// [`DiffusionGrid::stats`]).
    ///
    /// `Precision::F32Simd` narrows the field into f32 once per call,
    /// sub-steps in f32, and widens back — half the stencil memory
    /// traffic per sub-step at the cost of the two conversion passes and
    /// ~1e-7 relative truncation per sub-step.
    ///
    /// The sweep's planes come from a buffer allocated for the call; a
    /// simulation's batch lends its step buffer instead.
    pub fn step_in(&mut self, dt: f64, precision: Precision) -> DiffusionStats {
        let grids = std::slice::from_mut(self);
        step_all(grids, dt, precision, &mut StepBuffer::default())
    }

    /// [`Self::step_in`] at the window's precision, cut into at most
    /// `slabs` slabs.
    fn advance(&mut self, dt: f64, window: &mut Window<'_>, slabs: usize) -> DiffusionStats {
        let n = self.substeps_for(dt);
        let dt_sub = dt / n as f64;
        let rows: u64 = match window {
            Window::F64(window) => {
                let k = self.stencil::<f64>(dt_sub);
                (0..n).map(|_| k.sweep(&mut self.c, window, slabs)).sum()
            }
            Window::F32(window) => {
                let k = self.stencil::<f32>(dt_sub);
                self.c32.clear();
                self.c32.extend(self.c.iter().map(|&v| v as f32));
                let rows = (0..n).map(|_| k.sweep(&mut self.c32, window, slabs)).sum();
                for (dst, src) in self.c.iter_mut().zip(&self.c32) {
                    *dst = f64::from(*src);
                }
                rows
            }
        };
        let run = DiffusionStats {
            voxel_updates: n as u64 * self.c.len() as u64,
            substeps: n as u64,
            interior_updates: rows * (self.res as u64 - 2),
            simd_rows: if self.res >= LANES + 2 { rows } else { 0 },
        };
        self.stats = self.stats.plus(run);
        run
    }

    /// Advance the field by `dt` with the retained reference engine: the
    /// branchy cell applied to every voxel, out of place, parallel over
    /// z-planes — the bitwise parity oracle and `bench_diffusion`
    /// baseline. It shares the cell with the in-place sweep and nothing
    /// else: not its scratch, not its slab driver. Sub-cycles exactly
    /// like [`DiffusionGrid::step`]; does not touch
    /// [`DiffusionGrid::stats`]. Returns voxel updates.
    pub fn step_reference(&mut self, dt: f64) -> u64 {
        let n = self.substeps_for(dt);
        let k = self.stencil::<f64>(dt / n as f64);
        let (res, sz) = (self.res, self.res * self.res);
        self.oracle.resize(self.c.len(), 0.0);
        for _ in 0..n {
            let plane = |z: usize| &self.c[z * sz..(z + 1) * sz];
            self.oracle
                .par_chunks_mut(sz)
                .enumerate()
                .for_each(|(z, out)| {
                    // Clamped at the z-walls: the wall plane mirrors itself.
                    let planes = [
                        plane(z.saturating_sub(1)),
                        plane(z),
                        plane((z + 1).min(res - 1)),
                    ];
                    for y in 0..res {
                        for x in 0..res {
                            out[y * res + x] = k.cell(planes, x, y, z == 0 || z + 1 == res);
                        }
                    }
                });
            std::mem::swap(&mut self.c, &mut self.oracle);
        }
        n as u64 * self.c.len() as u64
    }

    /// Total substance mass (× voxel volume omitted — lattice sum).
    pub fn total_mass(&self) -> f64 {
        self.c.iter().sum()
    }

    /// Peak concentration.
    pub fn max_concentration(&self) -> f64 {
        self.c.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(boundary: BoundaryCondition) -> DiffusionGrid {
        DiffusionGrid::new(
            DiffusionParams {
                name: "test",
                coefficient: 0.1,
                decay: 0.0,
                resolution: 16,
                boundary,
            },
            Aabb::cube(8.0),
        )
    }

    #[test]
    fn mass_conserved_with_closed_boundaries() {
        let mut g = grid(BoundaryCondition::Closed);
        g.secrete(Vec3::zero(), 100.0);
        let m0 = g.total_mass();
        for _ in 0..50 {
            g.step(0.5);
        }
        assert!((g.total_mass() - m0).abs() < 1e-9 * m0.max(1.0));
    }

    #[test]
    fn mass_escapes_dirichlet_boundaries() {
        let mut g = grid(BoundaryCondition::Dirichlet);
        g.secrete(Vec3::zero(), 100.0);
        let m0 = g.total_mass();
        for _ in 0..400 {
            g.step(0.5);
        }
        assert!(g.total_mass() < m0 * 0.9, "mass should leak out");
    }

    #[test]
    fn diffusion_spreads_a_point_source() {
        let mut g = grid(BoundaryCondition::Closed);
        g.secrete(Vec3::zero(), 100.0);
        let peak0 = g.max_concentration();
        for _ in 0..20 {
            g.step(0.5);
        }
        assert!(g.max_concentration() < peak0);
        // A voxel away from the source now has non-zero concentration.
        assert!(g.concentration_at(Vec3::new(2.0, 0.0, 0.0)) > 0.0);
    }

    #[test]
    fn decay_reduces_mass() {
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "t",
                coefficient: 0.0,
                decay: 0.1,
                resolution: 8,
                boundary: BoundaryCondition::Closed,
            },
            Aabb::cube(4.0),
        );
        g.secrete(Vec3::zero(), 10.0);
        let m0 = g.total_mass();
        g.step(1.0);
        assert!((g.total_mass() - m0 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn gradient_points_toward_source() {
        let mut g = grid(BoundaryCondition::Closed);
        g.secrete(Vec3::zero(), 100.0);
        for _ in 0..10 {
            g.step(0.5);
        }
        // From +x of the source, the gradient points in −x (toward it).
        let grad = g.gradient_at(Vec3::new(3.0, 0.0, 0.0));
        assert!(grad.x < 0.0, "gradient {grad:?}");
    }

    #[test]
    fn gradient_zero_outside_space() {
        // Regression: gradient_at used to clamp out-of-space positions
        // into boundary voxels and report wall gradients, while
        // concentration_at already read 0 out there.
        let mut g = grid(BoundaryCondition::Closed);
        g.secrete(Vec3::zero(), 100.0);
        for _ in 0..10 {
            g.step(0.5);
        }
        assert_eq!(g.gradient_at(Vec3::new(50.0, 0.0, 0.0)), Vec3::zero());
        assert_eq!(g.gradient_at(Vec3::splat(-8.0001)), Vec3::zero());
        // Just inside still reads a field gradient.
        assert!(g.gradient_at(Vec3::new(3.0, 0.0, 0.0)).x < 0.0);
    }

    #[test]
    fn fill_sets_uniform_field() {
        let mut g = grid(BoundaryCondition::Closed);
        g.fill(0.75);
        assert_eq!(g.concentration_at(Vec3::zero()), 0.75);
        assert!((g.total_mass() - 0.75 * g.num_voxels() as f64).abs() < 1e-9);
        // A uniform field is a diffusion fixed point.
        g.step(0.5);
        assert!((g.concentration_at(Vec3::splat(3.0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn out_of_space_secretion_is_ignored() {
        // Regression: secrete() used to clamp out-of-space positions into
        // the nearest boundary voxel, silently piling the secreter's
        // whole output onto the wall.
        let mut g = grid(BoundaryCondition::Closed);
        assert!(g.secrete(Vec3::zero(), 100.0));
        assert!(!g.secrete(Vec3::new(50.0, 0.0, 0.0), 999.0));
        assert!(!g.secrete(Vec3::splat(-8.0001), 999.0));
        assert_eq!(g.total_mass(), 100.0);
        // Mass stays conserved through diffusion under closed walls even
        // with the rejected out-of-bounds deposits.
        for _ in 0..50 {
            g.step(0.5);
        }
        assert!((g.total_mass() - 100.0).abs() < 1e-9 * 100.0);
    }

    #[test]
    fn out_of_space_concentration_reads_zero() {
        let mut g = grid(BoundaryCondition::Closed);
        g.fill(0.75);
        // In-space positions (boundary included) read the field…
        assert_eq!(g.concentration_at(Vec3::splat(8.0)), 0.75);
        // …but positions beyond the space no longer alias the boundary
        // voxel.
        assert_eq!(g.concentration_at(Vec3::splat(8.0001)), 0.0);
        assert_eq!(g.concentration_at(Vec3::new(-100.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn voxel_of_clamps() {
        let g = grid(BoundaryCondition::Closed);
        assert_eq!(g.voxel_of(Vec3::splat(-100.0)), [0, 0, 0]);
        assert_eq!(g.voxel_of(Vec3::splat(100.0)), [15, 15, 15]);
    }

    #[test]
    fn step_reports_voxel_work() {
        let mut g = grid(BoundaryCondition::Closed);
        assert_eq!(g.step(0.5), 16 * 16 * 16);
    }

    #[test]
    fn tiled_matches_reference_bitwise() {
        // The quick inline version of tests/diffusion_parity.rs: one
        // smooth field, both boundary conditions, a few steps.
        for boundary in [BoundaryCondition::Closed, BoundaryCondition::Dirichlet] {
            let mut a = grid(boundary);
            for i in 0..a.num_voxels() {
                a.c[i] = ((i % 97) as f64) * 0.013 + ((i % 11) as f64) * 0.21;
            }
            let mut b = a.clone();
            for _ in 0..4 {
                a.step(0.5);
                b.step_reference(0.5);
            }
            for (va, vb) in a.c.iter().zip(b.c.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{boundary:?}");
            }
        }
    }

    fn pool(workers: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap()
    }

    #[test]
    fn a_stepped_field_holds_its_lattice_alone() {
        let lattice = 32 * 32 * 32 * 8;
        let mut g = DiffusionGrid::new(DiffusionParams::oxygen(), Aabb::cube(8.0));
        assert_eq!(g.resident_bytes(), lattice);
        for workers in [1, 2, 4] {
            pool(workers).install(|| {
                g.step(0.5);
                g.step(0.5);
            });
            assert_eq!(g.resident_bytes(), lattice, "{workers} workers");
        }
        // The f32 leg keeps its narrowed lattice…
        g.step_in(0.5, Precision::F32Simd);
        assert_eq!(g.resident_bytes(), lattice + lattice / 2);
        // …and only the reference oracle costs a second lattice.
        let mut oracle = g.clone();
        oracle.step_reference(0.5);
        assert_eq!(oracle.resident_bytes(), g.resident_bytes() + lattice);
    }

    /// A batch borrows one window per grid swept at once, each one slab
    /// of the largest grid; a lone grid one window of two slabs per
    /// worker, none thinner than eight planes. The windows' bits never
    /// show: every worker count steps the fields to the same bits.
    #[test]
    fn a_batch_borrows_one_window_per_worker() {
        let fields = |res: [usize; 4]| -> Vec<DiffusionGrid> {
            res.iter()
                .map(|&resolution| {
                    let mut g = DiffusionGrid::new(
                        DiffusionParams {
                            resolution,
                            ..DiffusionParams::oxygen()
                        },
                        Aabb::cube(8.0),
                    );
                    g.secrete(Vec3::new(1.0, -2.0, 3.0), 50.0);
                    g
                })
                .collect()
        };
        let plane = |res: usize, word: usize| SLAB_SCRATCH * res * res * word;
        let mut want = None;
        for workers in [1, 2, 4] {
            for (precision, word) in [(Precision::F64, 8), (Precision::F32Simd, 4)] {
                let mut grids = fields([16, 24, 12, 24]);
                let mut buffer = StepBuffer::default();
                pool(workers).install(|| step_all(&mut grids, 0.5, precision, &mut buffer));
                let windows = workers.min(4) * plane(24, word);
                assert_eq!(buffer.resident_bytes(), windows, "{workers} workers");
                // A lone 24³ grid: two slabs per worker, at most three.
                let mut buffer = StepBuffer::default();
                pool(workers).install(|| step_all(&mut grids[3..], 0.5, precision, &mut buffer));
                let slabs = if workers == 1 { 1 } else { 3 };
                assert_eq!(buffer.resident_bytes(), slabs * plane(24, word));
                let bits: Vec<Vec<u64>> = grids
                    .iter()
                    .map(|g| g.c.iter().map(|v| v.to_bits()).collect())
                    .collect();
                match &want {
                    None => want = Some((precision, bits)),
                    Some((p, want)) if *p == precision => assert!(*want == bits),
                    Some(_) => {}
                }
            }
        }
    }

    #[test]
    fn from_parts_adopts_the_column_it_is_given() {
        let params = DiffusionParams {
            resolution: 3,
            ..DiffusionParams::oxygen()
        };
        let column: Vec<f64> = (0..27).map(f64::from).collect();
        let heap = column.as_ptr();
        let g = DiffusionGrid::from_parts(params, Aabb::cube(4.0), column).unwrap();
        assert_eq!(g.concentrations().as_ptr(), heap, "copied, not adopted");
        assert_eq!(g.concentration_at(Vec3::splat(3.9)), 26.0);
        assert_eq!(g.resident_bytes(), 27 * 8);
        for len in [0, 26, 28, 64] {
            let err = DiffusionGrid::from_parts(params, Aabb::cube(4.0), vec![0.0; len])
                .expect_err("wrong length");
            let want = format!("{len} concentration values for a 3³ lattice");
            assert!(err.contains(&want), "{err}");
        }
    }

    #[test]
    fn unstable_config_sub_cycles_and_stays_stable() {
        // h = 1, Σ1/h² = 3, D·dt·Σ = 1.5 → n = ceil(9) = 9 sub-steps.
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "stiff",
                coefficient: 1.0,
                decay: 0.0,
                resolution: 16,
                boundary: BoundaryCondition::Closed,
            },
            Aabb::cube(8.0),
        );
        assert_eq!(g.substeps_for(0.5), 9);
        g.secrete(Vec3::zero(), 100.0);
        assert_eq!(g.step(0.5), 9 * 16 * 16 * 16);
        for _ in 0..20 {
            g.step(0.5);
        }
        // The old engine diverged here (λ = 1.5 > 1/2); sub-cycling
        // keeps the field finite, non-negative-ish and mass-conserving.
        assert!((g.total_mass() - 100.0).abs() < 1e-9 * 100.0);
        assert!(g.max_concentration().is_finite());
        assert!(g.max_concentration() < 100.0);
    }

    #[test]
    fn stable_config_takes_one_substep() {
        let g = grid(BoundaryCondition::Closed);
        // D·dt·Σ1/h² = 0.1·0.5·3 = 0.15 ≤ 1/6.
        assert_eq!(g.substeps_for(0.5), 1);
        assert_eq!(g.substeps_for(0.0), 1);
    }

    #[test]
    fn stats_accumulate_per_step() {
        let mut g = grid(BoundaryCondition::Closed);
        let run = g.step_in(0.5, Precision::F64);
        assert_eq!(run.voxel_updates, 16 * 16 * 16);
        assert_eq!(run.substeps, 1);
        assert_eq!(run.interior_updates, 14 * 14 * 14);
        // Every interior row (14² of them) fits at least one 8-lane
        // vector at res 16.
        assert_eq!(run.simd_rows, 14 * 14);
        g.step(0.5);
        assert_eq!(g.stats().voxel_updates, 2 * 16 * 16 * 16);
        assert_eq!(g.stats().substeps, 2);
        let frac = g.stats().interior_fraction();
        assert!((frac - (14.0f64 / 16.0).powi(3)).abs() < 1e-12);
    }

    #[test]
    fn f32_path_tracks_f64_within_envelope() {
        let mut a = grid(BoundaryCondition::Closed);
        a.secrete(Vec3::zero(), 100.0);
        let mut b = a.clone();
        for _ in 0..20 {
            a.step_in(0.5, Precision::F64);
            b.step_in(0.5, Precision::F32Simd);
        }
        let m = a.total_mass();
        assert!((b.total_mass() - m).abs() < 1e-4 * m);
        for (va, vb) in a.c.iter().zip(b.c.iter()) {
            assert!((va - vb).abs() < 1e-4 * a.max_concentration());
        }
    }

    #[test]
    fn minimum_resolution_grid_steps() {
        // res = 2: every voxel is a face; the interior sweep is empty.
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "tiny",
                coefficient: 0.01,
                decay: 0.0,
                resolution: 2,
                boundary: BoundaryCondition::Closed,
            },
            Aabb::cube(4.0),
        );
        g.fill(1.0);
        let run = g.step_in(0.5, Precision::F64);
        assert_eq!(run.voxel_updates, 8);
        assert_eq!(run.interior_updates, 0);
        assert_eq!(run.simd_rows, 0);
        assert!((g.total_mass() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let ok = DiffusionParams::oxygen();
        assert!(ok.validate().is_ok());
        for (p, what) in [
            (
                DiffusionParams {
                    coefficient: -0.1,
                    ..ok
                },
                "negative coefficient",
            ),
            (
                DiffusionParams {
                    coefficient: f64::NAN,
                    ..ok
                },
                "NaN coefficient",
            ),
            (
                DiffusionParams {
                    coefficient: f64::INFINITY,
                    ..ok
                },
                "infinite coefficient",
            ),
            (DiffusionParams { decay: -1.0, ..ok }, "negative decay"),
            (
                DiffusionParams {
                    decay: f64::NAN,
                    ..ok
                },
                "NaN decay",
            ),
            (
                DiffusionParams {
                    resolution: 0,
                    ..ok
                },
                "resolution 0",
            ),
            (
                DiffusionParams {
                    resolution: 1,
                    ..ok
                },
                "resolution 1",
            ),
        ] {
            assert!(p.validate().is_err(), "{what} should be rejected");
            assert!(
                DiffusionGrid::from_parts(p, Aabb::cube(4.0), vec![]).is_err(),
                "from_parts must reject {what}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid DiffusionParams")]
    fn new_panics_on_invalid_params() {
        DiffusionGrid::new(
            DiffusionParams {
                coefficient: -1.0,
                ..DiffusionParams::oxygen()
            },
            Aabb::cube(4.0),
        );
    }
}
