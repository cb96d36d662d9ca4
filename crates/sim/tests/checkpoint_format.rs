//! Checkpoint wire-format pinning and malformed-input hardening.
//!
//! Two jobs:
//!
//! 1. **Golden fixture.** A checkpoint of a fixed scene is committed at
//!    `tests/fixtures/checkpoint_v3.bin` and compared byte-for-byte
//!    against a freshly serialized copy. Any format drift — field order,
//!    widths, a [`bdm_sim::checkpoint::FORMAT_VERSION`] bump — fails the
//!    test until the fixture is deliberately regenerated with
//!    `BDM_UPDATE_CHECKPOINT_FIXTURE=1 cargo test -p bdm-sim --test
//!    checkpoint_format`. The fixture scene is built with exact decimal
//!    arithmetic and **zero simulation steps** (no libm transcendentals),
//!    so its bytes are identical on every platform. The v1 and v2
//!    fixtures of the same scene are retained, never regenerated: they
//!    must keep restoring, and rewrite as the current version.
//!
//! 2. **Negative paths.** Every malformed-input class maps to its own
//!    [`CheckpointError`] variant, restore never panics, and no
//!    partially-restored `Simulation` escapes. Proptests sweep strict
//!    prefixes (always an error) and random single-byte corruptions
//!    (never a panic).

use bdm_math::Vec3;
use bdm_sim::behavior::Behavior;
use bdm_sim::cell::CellBuilder;
use bdm_sim::checkpoint::{CheckpointError, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
use bdm_sim::diffusion::{BoundaryCondition, DiffusionParams};
use bdm_sim::param::SimParams;
use bdm_sim::simulation::Simulation;
use proptest::prelude::*;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v3.bin"
);

/// Retained v2 stream: AGENTS still carries the two dirty-epoch words
/// after `next_uid`, which restore reads and discards.
const FIXTURE_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v2.bin"
);

/// Retained v1 stream: restores through the `MIN_FORMAT_VERSION` path
/// (no `gpu_resident` byte in PARAMS), never regenerated.
const FIXTURE_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v1.bin"
);

fn ckpt(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.checkpoint(&mut buf).expect("checkpoint to Vec");
    buf
}

/// Restore, discarding the (non-Debug) simulation — negative-path tests
/// only match on the error variant.
fn restore_err(bytes: &[u8]) -> Result<(), CheckpointError> {
    Simulation::restore(&mut &bytes[..]).map(|_| ())
}

/// The committed scene: sharded (so the SHARDS section exists), one
/// substance with non-uniform exact-dyadic concentrations, all four
/// behavior kinds, a non-default op frequency — and no stepping, so
/// every float is an exact decimal and the bytes are platform-exact.
fn fixture_sim(shards: usize) -> Simulation {
    let mut params = SimParams::cube(32.0)
        .with_seed(42)
        .with_interaction_radius(8.0);
    if shards > 0 {
        params = params.with_shards(shards).with_shard_rebalance(4, 1.5);
    }
    let mut sim = Simulation::new(params);
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "fixture-substance",
        coefficient: 0.25,
        decay: 0.125,
        resolution: 4,
        boundary: BoundaryCondition::Dirichlet,
    });
    sim.diffusion_grid_mut(s).fill(0.5);
    sim.diffusion_grid_mut(s)
        .secrete(Vec3::new(8.0, -8.0, 16.0), 2.0);
    assert!(sim.scheduler_mut().set_frequency("diffusion", 3));
    sim.add_cell(
        CellBuilder::new(Vec3::new(-8.0, 4.5, 2.25))
            .diameter(3.5)
            .adherence(0.125)
            .behavior(Behavior::GrowthDivision {
                growth_rate: 16.0,
                division_threshold: 4.0,
            }),
    );
    sim.add_cell(
        CellBuilder::new(Vec3::new(10.0, -6.5, 0.75))
            .diameter(2.5)
            .behavior(Behavior::Chemotaxis {
                substance: s,
                speed: 0.5,
            }),
    );
    sim.add_cell(
        CellBuilder::new(Vec3::new(0.5, 0.25, -12.0))
            .diameter(4.0)
            .behavior(Behavior::Secretion {
                substance: s,
                rate: 1.5,
            })
            .behavior(Behavior::Apoptosis { probability: 0.25 }),
    );
    sim
}

fn valid_bytes() -> Vec<u8> {
    ckpt(&fixture_sim(2))
}

// --------------------------------------------------------------------
// Wire-layout helpers for surgical corruption (header: magic 8 +
// version u32 + section_count u32 = 16 bytes; table entries 12 bytes:
// tag u32 + len u64).
// --------------------------------------------------------------------

const HEADER: usize = 16;
const ENTRY: usize = 12;

fn section_count(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize
}

/// `(table_entry_offset, payload_offset, payload_len)` for `tag`.
fn locate(bytes: &[u8], tag: u32) -> (usize, usize, usize) {
    let n = section_count(bytes);
    let mut payload = HEADER + n * ENTRY;
    for i in 0..n {
        let e = HEADER + i * ENTRY;
        let t = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
        if t == tag {
            return (e, payload, len);
        }
        payload += len;
    }
    panic!("section {tag} not found in stream");
}

/// Remove the *last* section (entry + payload) from a valid stream.
fn strip_last_section(bytes: &[u8]) -> Vec<u8> {
    let n = section_count(bytes);
    let last_entry = HEADER + (n - 1) * ENTRY;
    let len =
        u64::from_le_bytes(bytes[last_entry + 4..last_entry + 12].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(bytes.len() - ENTRY - len);
    out.extend_from_slice(&bytes[..12]);
    out.extend_from_slice(&((n - 1) as u32).to_le_bytes());
    out.extend_from_slice(&bytes[HEADER..last_entry]);
    out.extend_from_slice(&bytes[last_entry + ENTRY..bytes.len() - len]);
    out
}

// --------------------------------------------------------------------
// Satellite 1: the golden fixture
// --------------------------------------------------------------------

/// Byte-for-byte format pinning. A [`FORMAT_VERSION`] bump (or any
/// layout change) without a deliberate fixture regeneration fails here.
#[test]
fn golden_fixture_matches_byte_for_byte() {
    let bytes = valid_bytes();
    if std::env::var_os("BDM_UPDATE_CHECKPOINT_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &bytes).expect("write fixture");
        eprintln!("regenerated {FIXTURE} ({} bytes)", bytes.len());
        return;
    }
    let golden = std::fs::read(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {FIXTURE} ({e}); regenerate with \
             BDM_UPDATE_CHECKPOINT_FIXTURE=1 cargo test -p bdm-sim --test checkpoint_format"
        )
    });
    assert_eq!(
        FORMAT_VERSION, 3,
        "FORMAT_VERSION changed: bump the fixture file name to checkpoint_v{FORMAT_VERSION}.bin, \
         regenerate it, and update this test's expectations"
    );
    assert_eq!(
        bytes, golden,
        "checkpoint wire format drifted from the committed v3 fixture; if the change is \
         intentional, bump FORMAT_VERSION and regenerate with BDM_UPDATE_CHECKPOINT_FIXTURE=1"
    );
}

/// The committed fixture stays restorable and semantically intact.
#[test]
fn golden_fixture_restores_with_expected_contents() {
    let golden = std::fs::read(FIXTURE).expect("golden fixture present");
    let sim = Simulation::restore(&mut &golden[..]).expect("fixture restores");
    assert_eq!(sim.steps_executed(), 0);
    assert_eq!(sim.rm().len(), 3);
    assert_eq!(sim.rm().diameter(0), 3.5);
    assert_eq!(sim.rm().position(1), Vec3::new(10.0, -6.5, 0.75));
    assert_eq!(sim.params().seed, 42);
    assert_eq!(sim.params().interaction_radius, Some(8.0));
    assert_eq!(sim.params().shards.count, 2);
    let g = sim.diffusion_grid(0);
    assert_eq!(g.params().name, "fixture-substance");
    assert_eq!(g.resolution(), 4);
    // fill(0.5) over 4³ voxels plus one secrete(2.0) — exact dyadics.
    assert_eq!(g.concentrations().iter().sum::<f64>(), 64.0 * 0.5 + 2.0);
    let diffusion = sim
        .scheduler()
        .stats()
        .into_iter()
        .find(|s| s.name == "diffusion")
        .expect("diffusion op present");
    assert_eq!(diffusion.frequency, 3);
    assert_eq!(sim.sharding().expect("sharded").map().shards(), 2);
    // And the restored state re-checkpoints to the identical stream.
    assert_eq!(ckpt(&sim), golden);
}

/// A committed v1 stream (no `gpu_resident` byte) still restores:
/// `MIN_FORMAT_VERSION` is a promise, not decoration. The flag defaults
/// off, and re-checkpointing emits a current-version stream that is the
/// old payload plus exactly the appended PARAMS byte, minus the two
/// dirty-epoch words version 3 no longer writes.
#[test]
fn v1_fixture_restores_with_residency_defaulted_off() {
    let golden = std::fs::read(FIXTURE_V1).expect("retained v1 fixture present");
    assert_eq!(
        u32::from_le_bytes(golden[8..12].try_into().unwrap()),
        MIN_FORMAT_VERSION
    );
    let sim = Simulation::restore(&mut &golden[..]).expect("v1 stream restores");
    assert!(!sim.params().gpu_resident);
    assert_eq!(sim.rm().len(), 3);
    assert_eq!(sim.params().seed, 42);
    assert_eq!(sim.params().shards.count, 2);
    // Re-checkpointing upgrades the stream to the current version.
    let rewritten = ckpt(&sim);
    assert_eq!(
        u32::from_le_bytes(rewritten[8..12].try_into().unwrap()),
        FORMAT_VERSION
    );
    assert_eq!(rewritten.len(), golden.len() + 1 - 16);
}

/// The committed v2 stream restores and rewrites as exactly the v3
/// fixture, which is the v2 bytes with the version word set to 3, the
/// AGENTS `byte_len` reduced by 16, and the two dirty-epoch words (16
/// bytes at AGENTS offset 16, after the agent count and `next_uid`) cut
/// out — nothing else moved.
#[test]
fn a_v2_stream_rewrites_as_v3_without_its_epochs() {
    let v2 = std::fs::read(FIXTURE_V2).expect("retained v2 fixture present");
    assert_eq!(u32::from_le_bytes(v2[8..12].try_into().unwrap()), 2);
    let sim = Simulation::restore(&mut &v2[..]).expect("v2 stream restores");
    let rewritten = ckpt(&sim);
    let v3 = std::fs::read(FIXTURE).expect("golden fixture present");
    assert_eq!(rewritten, v3, "a rewritten v2 stream is the v3 fixture");

    let mut want = v2.clone();
    want[8..12].copy_from_slice(&3u32.to_le_bytes());
    let (entry, payload, len) = locate(&v2, 3);
    want[entry + 4..entry + 12].copy_from_slice(&(len as u64 - 16).to_le_bytes());
    want.drain(payload + 16..payload + 32);
    assert_eq!(rewritten, want, "v2 minus its epochs");
}

#[test]
fn stream_header_is_the_documented_layout() {
    let bytes = valid_bytes();
    assert_eq!(&bytes[..8], &MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION
    );
    // META, PARAMS, AGENTS, DIFFUSION, SCHEDULER, SHARDS.
    assert_eq!(section_count(&bytes), 6);
    let tags: Vec<u32> = (0..6)
        .map(|i| {
            let e = HEADER + i * ENTRY;
            u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap())
        })
        .collect();
    assert_eq!(tags, vec![1, 2, 3, 4, 5, 6]);
    // An unsharded checkpoint drops exactly the SHARDS section.
    assert_eq!(section_count(&ckpt(&fixture_sim(0))), 5);
}

// --------------------------------------------------------------------
// Satellite 2: distinct errors per malformed-input class, no panics
// --------------------------------------------------------------------

#[test]
fn bad_magic_is_detected() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0x20;
    match restore_err(&bytes) {
        Err(CheckpointError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unsupported_version_reports_both_versions() {
    let mut bytes = valid_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match restore_err(&bytes) {
        Err(e @ CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, FORMAT_VERSION);
            // The message names the whole range restore accepts.
            let msg = e.to_string();
            let range = format!("{MIN_FORMAT_VERSION}..={FORMAT_VERSION}");
            assert!(msg.contains("99") && msg.contains(&range), "{msg}");
            assert_eq!(range, "1..=3");
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_inside_the_header_is_truncated() {
    let bytes = valid_bytes();
    match restore_err(&bytes[..10]) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn truncation_inside_a_section_is_truncated() {
    // Shorten the last section's *table entry* by one byte and drop the
    // stream's final byte: the table is self-consistent, but the
    // section's own encoding ends early.
    let mut bytes = valid_bytes();
    let n = section_count(&bytes);
    let last_entry = HEADER + (n - 1) * ENTRY;
    let len = u64::from_le_bytes(bytes[last_entry + 4..last_entry + 12].try_into().unwrap());
    bytes[last_entry + 4..last_entry + 12].copy_from_slice(&(len - 1).to_le_bytes());
    bytes.truncate(bytes.len() - 1);
    match restore_err(&bytes) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn section_length_overflow_is_reported_with_context() {
    let mut bytes = valid_bytes();
    // Claim more payload than the stream holds for the AGENTS section.
    let (entry, _, _) = locate(&bytes, 3);
    bytes[entry + 4..entry + 12].copy_from_slice(&u64::MAX.to_le_bytes());
    match restore_err(&bytes) {
        Err(CheckpointError::SectionOverflow {
            tag,
            len,
            remaining,
        }) => {
            assert_eq!(tag, 3);
            assert_eq!(len, u64::MAX);
            assert!(remaining < u64::MAX);
        }
        other => panic!("expected SectionOverflow, got {other:?}"),
    }
}

/// `bytes` restores as `InvalidParams`, its message naming `word`.
fn assert_invalid_params(bytes: &[u8], word: &str) {
    match restore_err(bytes) {
        Err(CheckpointError::InvalidParams(msg)) => {
            assert!(msg.contains(word), "{word}: unexpected message: {msg}");
        }
        other => panic!("{word}: expected InvalidParams, got {other:?}"),
    }
}

/// `bytes` restores as `Corrupt`, its message naming `word`.
fn assert_corrupt(bytes: &[u8], word: &str) {
    match restore_err(bytes) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains(word), "{word}: unexpected message: {msg}");
        }
        other => panic!("{word}: expected Corrupt, got {other:?}"),
    }
}

/// Satellite 4 (restore path): params claim 2 shards but the SHARDS
/// section is gone — `SimParams::validate_for_restore` rejects the
/// combination instead of fabricating an even span map.
#[test]
fn stripping_the_shards_section_is_invalid_params() {
    let bytes = valid_bytes();
    let stripped = strip_last_section(&bytes);
    assert_invalid_params(&stripped, "shard");
}

/// Satellite 4, the other direction: the SHARDS section is present but
/// the params' shard count was zeroed.
#[test]
fn zeroing_the_shard_count_is_invalid_params() {
    let mut bytes = valid_bytes();
    let (_, payload, len) = locate(&bytes, 2);
    // PARAMS layout: space 6×f64 (48) + mech 4×f64 (32) + seed u64 (8)
    // + interaction_radius flag (1) + value (8, Some in the fixture)
    // + curve u8 + reorder.every u64 + precision u8 → count u64.
    let off = payload + 48 + 32 + 8 + 1 + 8 + 1 + 8 + 1;
    assert!(off + 8 <= payload + len);
    bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
    assert_invalid_params(&bytes, "shard");
}

/// The PARAMS curve byte is always written 0 (Z-order); a 1 names the
/// retired Hilbert storage order and must come back as a structured
/// params error, not a panic or a silently Z-ordered restore.
#[test]
fn a_retired_reorder_curve_is_invalid_params() {
    let mut bytes = valid_bytes();
    let (_, payload, _) = locate(&bytes, 2);
    // PARAMS layout: space 6×f64 (48) + mech 4×f64 (32) + seed u64 (8)
    // + interaction_radius flag (1) + value (8, Some in the fixture)
    // → curve u8.
    let off = payload + 48 + 32 + 8 + 1 + 8;
    assert_eq!(bytes[off], 0, "every stream writes the Z-order curve");
    bytes[off] = 1;
    assert_invalid_params(&bytes, "Hilbert");
}

/// A stream whose mechanics are not finite (a NaN or infinite timestep,
/// an infinite repulsion, a NaN attraction or displacement clamp)
/// restores as a structured params error, not as a simulation whose
/// first step writes NaN into the agents; so does one whose space is
/// unbounded, whose first step would ask for `u32::MAX` voxels per axis.
#[test]
fn non_finite_mechanics_are_invalid_params() {
    // PARAMS layout: space min xyz, max xyz (6×f64, words 0–5) → mech
    // repulsion, attraction, timestep, max_displacement (words 6–9).
    for (field, k, bad) in [
        ("space", 0, f64::NEG_INFINITY),
        ("space", 3, f64::INFINITY),
        ("timestep", 8, f64::NAN),
        ("timestep", 8, f64::INFINITY),
        ("repulsion", 6, f64::INFINITY),
        ("attraction", 7, f64::NAN),
        ("max_displacement", 9, f64::NAN),
    ] {
        let mut bytes = valid_bytes();
        let (_, payload, _) = locate(&bytes, 2);
        let off = payload + 8 * k;
        bytes[off..off + 8].copy_from_slice(&bad.to_le_bytes());
        assert_invalid_params(&bytes, field);
    }
}

/// An agent whose diameter is not positive and finite, or whose
/// adherence is not non-negative and finite — values `CellBuilder`
/// refuses — restores as `Corrupt`, naming the field.
#[test]
fn agents_the_builder_rejects_are_corrupt() {
    // AGENTS layout (v3): count u64, next_uid u64, then the x, y, z,
    // diameter and adherence columns (n f64 each); agent 0 is patched.
    let diameters = [0.0, -2.0, f64::NAN, f64::INFINITY].map(|v| ("diameter", 3, v));
    let adherences = [-0.5, f64::NAN, f64::INFINITY].map(|v| ("adherence", 4, v));
    for (field, column, bad) in diameters.into_iter().chain(adherences) {
        let mut bytes = valid_bytes();
        let (_, payload, _) = locate(&bytes, 3);
        let n = u64::from_le_bytes(bytes[payload..payload + 8].try_into().unwrap()) as usize;
        let off = payload + 16 + 8 * column * n;
        bytes[off..off + 8].copy_from_slice(&bad.to_le_bytes());
        assert_corrupt(&bytes, field);
    }
}

#[test]
fn missing_required_section_is_corrupt() {
    // Unsharded stream: the last section is SCHEDULER, which is required.
    let stripped = strip_last_section(&ckpt(&fixture_sim(0)));
    assert_corrupt(&stripped, "SCHEDULER");
}

#[test]
fn behavior_with_dangling_substance_index_is_corrupt() {
    // An unsharded scene whose only substance reference points past the
    // (empty) substance list.
    let mut sim = Simulation::new(SimParams::cube(8.0).with_seed(1));
    sim.add_cell(
        CellBuilder::new(Vec3::new(0.0, 0.0, 0.0))
            .diameter(2.0)
            .behavior(Behavior::Secretion {
                substance: 5,
                rate: 1.0,
            }),
    );
    assert_corrupt(&ckpt(&sim), "substance");
}

#[test]
fn error_display_is_informative() {
    let e = CheckpointError::SectionOverflow {
        tag: 3,
        len: 1000,
        remaining: 10,
    };
    let msg = e.to_string();
    assert!(msg.contains('3') && msg.contains("1000") && msg.contains("10"));
    assert!(CheckpointError::BadMagic.to_string().contains("magic"));
    let v = CheckpointError::UnsupportedVersion {
        found: 9,
        supported: 1,
    };
    assert!(v.to_string().contains('9'));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid stream is an error (never a panic,
    /// never a silently half-restored simulation).
    #[test]
    fn every_strict_prefix_errors(frac in 0.0f64..1.0) {
        let bytes = valid_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        let res = restore_err(&bytes[..cut]);
        prop_assert!(res.is_err(), "prefix of {cut}/{} bytes restored", bytes.len());
    }

    /// Random single-byte corruption anywhere in the stream never
    /// panics. (It may legitimately still restore — e.g. a flipped bit
    /// inside a position mantissa — but it must never crash or hang.)
    #[test]
    fn single_byte_corruption_never_panics(frac in 0.0f64..1.0, xor in 1u8..=255) {
        let mut bytes = valid_bytes();
        let i = ((bytes.len() as f64) * frac) as usize;
        bytes[i] ^= xor;
        let _ = restore_err(&bytes);
    }
}
