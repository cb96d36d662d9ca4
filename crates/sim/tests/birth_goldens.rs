//! Division waves against the parent commit's own bits.
//!
//! `thread_determinism` and `resume_equivalence` compare a run with
//! itself — serial against parallel, resumed against uninterrupted — so
//! a change that moves *every* run the same way (a daughter taking a
//! different uid, an epoch advancing by one instead of by the birth
//! count, a behavior list inherited from the wrong mother) passes them
//! all. The hashes below were harvested from the commit before the
//! agent columns became plain data and must hold unmodified after it:
//! per scene, the **storage-order** uid / position / diameter /
//! adherence columns as raw bits, every agent's behavior list, the uid
//! counter, both dirty epochs, and the full checkpoint stream.
//!
//! The scenes are scripted to reach every branch of the birth merge:
//! two division waves with a reorder every second step (mothers meet
//! the merge out of uid order and across chunk boundaries), apoptosis
//! deaths in the very step that appends daughters, mothers carrying two
//! `GrowthDivision`s (same-mother twins — equal sort keys), inert cells
//! with the empty list, a secretor, and `Apoptosis` probabilities
//! `0.0`, `-0.0` and NaN — three lists equal or unequal under `==` in
//! all the wrong ways, distinct only by their bits, none of which ever
//! fires. CSR and kd-tree environments, and one sharded run.
//!
//! To re-harvest after a *deliberate* trajectory change: blank a `want`
//! and read `got` from the failure text (in a `git clone` of the parent
//! under `/root/scratch` when pinning against a parent).

use bdm_math::Vec3;
use bdm_sim::behavior::Behavior;
use bdm_sim::cell::CellBuilder;
use bdm_sim::diffusion::{BoundaryCondition, DiffusionParams};
use bdm_sim::environment::EnvironmentKind;
use bdm_sim::param::SimParams;
use bdm_sim::simulation::Simulation;

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

fn hash_behavior(h: &mut Fnv, b: &Behavior) {
    match *b {
        Behavior::GrowthDivision {
            growth_rate,
            division_threshold,
        } => {
            h.u64(0);
            h.f64s(&[growth_rate, division_threshold]);
        }
        Behavior::Chemotaxis { substance, speed } => {
            h.u64(1);
            h.u64(substance as u64);
            h.f64s(&[speed]);
        }
        Behavior::Secretion { substance, rate } => {
            h.u64(2);
            h.u64(substance as u64);
            h.f64s(&[rate]);
        }
        Behavior::Apoptosis { probability } => {
            h.u64(3);
            h.f64s(&[probability]);
        }
    }
}

fn ckpt(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.checkpoint(&mut buf).expect("checkpoint to Vec");
    buf
}

/// One scene's pinned state, a hash per column so a failure names what
/// moved.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    agents: usize,
    uids: u64,
    positions: u64,
    diameters: u64,
    adherences: u64,
    behaviors: u64,
    /// `next_uid`, `positions_epoch`, `attributes_epoch`.
    counters: [u64; 3],
    checkpoint: u64,
}

fn golden(sim: &Simulation) -> Golden {
    let rm = sim.rm();
    let hash = |f: &dyn Fn(&mut Fnv)| {
        let mut h = Fnv::new();
        f(&mut h);
        h.0
    };
    let (x, y, z) = rm.position_columns();
    Golden {
        agents: rm.len(),
        uids: hash(&|h| rm.uid_column().iter().for_each(|&u| h.u64(u))),
        positions: hash(&|h| [x, y, z].iter().for_each(|c| h.f64s(c))),
        diameters: hash(&|h| h.f64s(rm.diameter_column())),
        adherences: hash(&|h| h.f64s(rm.adherence_column())),
        behaviors: hash(&|h| {
            for i in 0..rm.len() {
                let list = rm.behaviors(i);
                h.u64(list.len() as u64);
                list.iter().for_each(|b| hash_behavior(h, b));
            }
        }),
        counters: [rm.next_uid(), rm.positions_epoch(), rm.attributes_epoch()],
        checkpoint: hash(&|h| h.bytes(&ckpt(sim))),
    }
}

const WAVE: Behavior = Behavior::GrowthDivision {
    growth_rate: 45.0,
    division_threshold: 10.5,
};
/// Twice on one mother: a growth rate above a third of the threshold
/// volume makes the second copy divide the freshly halved mother again
/// in the same step.
const TWIN: Behavior = Behavior::GrowthDivision {
    growth_rate: 250.0,
    division_threshold: 10.5,
};

/// Lattice cells `k` with `k % TWIN_EVERY == 6` are twin mothers.
const TWIN_EVERY: usize = 160;

fn twin_mothers(cells_per_dim: usize) -> u64 {
    (0..cells_per_dim.pow(3))
        .filter(|k| k % TWIN_EVERY == 6)
        .count() as u64
}

/// Benchmark A's lattice (pitch 2/3 of the diameter) with eight
/// different behavior lists and five adherences dealt by lattice index.
fn wave_scene(cells_per_dim: usize, params: SimParams, env: EnvironmentKind) -> Simulation {
    let mut sim = Simulation::new(params);
    sim.set_environment(env);
    let substance = sim.add_diffusion_grid(DiffusionParams {
        name: "marker",
        coefficient: 0.1,
        decay: 0.01,
        resolution: 8,
        boundary: BoundaryCondition::Closed,
    });
    let spacing = 10.0 / 1.5;
    let origin = -spacing * (cells_per_dim as f64 - 1.0) / 2.0;
    let apoptosis = |probability| Behavior::Apoptosis { probability };
    let mut k = 0usize;
    for z in 0..cells_per_dim {
        for y in 0..cells_per_dim {
            for x in 0..cells_per_dim {
                let cell = CellBuilder::new(Vec3::new(
                    origin + x as f64 * spacing,
                    origin + y as f64 * spacing,
                    origin + z as f64 * spacing,
                ))
                .diameter(10.0)
                .adherence(0.3 + 0.02 * (k % 5) as f64);
                let list: &[Behavior] = match k % 16 {
                    0 => &[],
                    1 => &[WAVE, apoptosis(0.02)],
                    2 => &[apoptosis(0.0)],
                    3 => &[apoptosis(-0.0)],
                    4 => &[apoptosis(f64::NAN)],
                    5 => &[Behavior::Secretion {
                        substance,
                        rate: 1.5,
                    }],
                    6 if k % TWIN_EVERY == 6 => &[TWIN, TWIN, apoptosis(0.55)],
                    _ => &[WAVE],
                };
                sim.add_cell(list.iter().fold(cell, |c, &b| c.behavior(b)));
                k += 1;
            }
        }
    }
    sim
}

fn wave_params(cells_per_dim: usize, seed: u64) -> SimParams {
    let half = 10.0 / 1.5 * cells_per_dim as f64 / 2.0 + 10.0;
    SimParams::cube(half).with_seed(seed).with_reorder(2)
}

/// Runs `sim` to each step count of `want`, comparing the state there.
fn assert_goldens(name: &str, cells_per_dim: usize, mut sim: Simulation, want: &[(u64, Golden)]) {
    let n0 = sim.rm().len() as u64;
    // The script does what the header says it does, at the parent and
    // after: on step 0 only the twin mothers divide, each twice, and
    // some of them die in that same step.
    sim.step();
    let births = sim.rm().next_uid() - n0;
    assert_eq!(births, 2 * twin_mothers(cells_per_dim), "{name}: twins");
    assert!(
        (sim.rm().len() as u64) < n0 + births,
        "{name}: no death in a birth step"
    );
    for (steps, want) in want {
        sim.simulate(steps - sim.steps_executed());
        let got = golden(&sim);
        assert_eq!(&got, want, "{name} after {steps} steps");
    }
    let (x, y, z) = sim.rm().position_columns();
    assert!(
        [x, y, z].iter().all(|c| c.iter().all(|v| v.is_finite())),
        "{name}: a NaN probability leaked into the state"
    );
    // The three zero-ish probabilities are still three lists, bit for
    // bit, and survive a restore (whose re-checkpoint is the same
    // stream).
    let bits: std::collections::BTreeSet<u64> = (0..sim.rm().len())
        .filter_map(|i| match sim.rm().behaviors(i) {
            [Behavior::Apoptosis { probability }] => Some(probability.to_bits()),
            _ => None,
        })
        .collect();
    let expect = [0.0f64, -0.0, f64::NAN].map(f64::to_bits);
    assert_eq!(bits, expect.into_iter().collect(), "{name}");
    let bytes = ckpt(&sim);
    let restored = Simulation::restore(&mut bytes.as_slice()).expect("restore");
    assert_eq!(golden(&restored), golden(&sim), "{name}: restored");
}

#[test]
fn csr_waves_match_the_parent_goldens() {
    let m = 17;
    let sim = wave_scene(
        m,
        wave_params(m, 7),
        EnvironmentKind::uniform_grid_csr_parallel(),
    );
    assert_goldens(
        "csr",
        m,
        sim,
        &[
            (
                3,
                Golden {
                    agents: 8368,
                    uids: 14393681648320087669,
                    positions: 16170808460673800099,
                    diameters: 4749611131450722110,
                    adherences: 6437383753809130470,
                    behaviors: 4059340867923332713,
                    counters: [8504, 29088, 8645],
                    checkpoint: 3764263123652580205,
                },
            ),
            (
                10,
                Golden {
                    agents: 18644,
                    uids: 11917568377475419764,
                    positions: 7664047549650478553,
                    diameters: 14483280719596625029,
                    adherences: 7418087335557137344,
                    behaviors: 2483284822236308729,
                    counters: [22458, 127131, 26287],
                    checkpoint: 11580084644924311383,
                },
            ),
        ],
    );
}

#[test]
fn kdtree_waves_match_the_parent_goldens() {
    let m = 11;
    let sim = wave_scene(m, wave_params(m, 8), EnvironmentKind::KdTree);
    assert_goldens(
        "kdtree",
        m,
        sim,
        &[(
            10,
            Golden {
                agents: 5218,
                uids: 17264491488223914480,
                positions: 13719553659817472550,
                diameters: 1498941655473700495,
                adherences: 13241923482924668412,
                behaviors: 12999135130589041971,
                counters: [6405, 35215, 7607],
                checkpoint: 8368138268658271514,
            },
        )],
    );
}

#[test]
fn sharded_waves_match_the_parent_goldens() {
    let m = 17;
    let params = wave_params(m, 9)
        .with_shards(4)
        .with_shard_rebalance(3, 1.05);
    let sim = wave_scene(m, params, EnvironmentKind::uniform_grid_csr_parallel());
    assert_goldens(
        "sharded",
        m,
        sim,
        &[(
            10,
            Golden {
                agents: 19506,
                uids: 11235327240325408718,
                positions: 1989744693463966099,
                diameters: 16381675027063329101,
                adherences: 17078752110128846972,
                behaviors: 17876063106100662212,
                counters: [24064, 131679, 28647],
                checkpoint: 15786883862468402884,
            },
        )],
    );
}
