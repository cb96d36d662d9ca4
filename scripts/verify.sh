#!/usr/bin/env bash
# Tier-1 verification: build, test, lint — the gate every PR must pass.
# Fully offline: all third-party crates are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Thread matrix: the bitwise suites again at 1, 2 and 4 workers (the
# default run above used the processor count).
for threads in 1 2 4; do
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release \
        --test csr_determinism --test scheduler_determinism \
        --test f32simd_determinism --test thread_determinism
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release -p bdm-sim \
        --test shard_determinism --test diffusion_parity --test resume_equivalence \
        --test birth_goldens
    # The reorder's radix argsort and its column gathers against the
    # comparison sort (the tests pin 1 / 2 / 4 workers and shuffled part
    # schedules themselves; this varies the default pool around them),
    # and a warm reorder's allocations: none on one worker, as many at
    # 12³ as at 24³ cells on two.
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release -p bdm-morton \
        --test proptests -- radix_argsort_matches_the_comparison_sort
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release -p bdm-sim \
        --test proptests --test alloc_births -- \
        sort_storage_orders_like_the_comparison_sort \
        a_warmed_reorder_allocates_a_constant
done
# Both lane bodies of the CSR voxel walk against their per-agent
# oracles, in release mode (the optimizer must not re-associate the
# in-order f64 accumulation), and the stage count.
cargo test -q --offline --release -p bdm-sim --lib -- \
    staged_lanes_match_the_per_agent_kernel \
    staged_f64_lanes_match_the_scalar_kernel_bitwise \
    every_voxel_is_staged_once \
    a_step_on_shuffled_storage_moves_every_agent_as_the_oracle_does
# Portable baseline: without x86-64-v3 the lane ops compile their
# `not(avx2)` array bodies, which must produce the same bits — the lane
# kernels' oracles (f32 and f64; the f64 ops' array bodies have no
# other coverage) and pinned fingerprints, the f32 determinism and
# precision suites, the checkpoint golden bytes, the division-wave
# goldens, and the diffusion suite: the sweep's row loop is vectorised
# by the compiler, so "same field bits at SSE2 width" is held by its
# goldens, not by argument.
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    -p bdm-math -p bdm-sim --lib
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    --test f32simd_determinism --test precision_claims
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    -p bdm-sim --test checkpoint_format --test diffusion_parity --test birth_goldens
# The diffusion fields against the bits of the double-buffered engine
# the in-place sweep replaced, and the slab matrix (1 / 2 / 3 / 4 / 7
# workers and shuffled slab order over even, ragged and single-slab
# cuts), by name in release.
cargo test -q --offline --release -p bdm-sim --test diffusion_parity -- \
    fields_match_the_parent_goldens \
    any_slab_partition_yields_the_same_bits_and_counters
# Division waves against the bits of the engine that kept a behavior
# list per agent (storage-order columns, lists, uid counter, epochs,
# checkpoint bytes), and the allocation counts that engine could not
# meet: a wave allocates per chunk, a restore a constant (the warm
# reorder's count runs in the thread matrix above) — by name in release.
cargo test -q --offline --release -p bdm-sim --test birth_goldens -- \
    csr_waves_match_the_parent_goldens \
    kdtree_waves_match_the_parent_goldens \
    sharded_waves_match_the_parent_goldens
cargo test -q --offline --release -p bdm-sim --test alloc_births -- \
    a_division_wave_allocates_per_chunk_not_per_birth \
    a_restore_allocates_a_constant
# The SIMT engine at 1, 2 and 4 workers (launches whose blocks commute
# fork onto them): steady-state launches must not touch the heap on one
# worker (cold and warm L2 alike: the per-key buckets keep their
# capacity; sorted storage and a one-lane launch alike: the lane
# filter's two streams trade places) and allocate only the fork-join's
# own on two, at any scene size — in release mode, where the optimizer
# decides what actually allocates. The log-time coalescer and the lane
# filter in front of it against the retained BTreeMap oracle on random
# lane scripts (lanes that repeat, alternate with and fall out of step
# with their neighbors; commuting scripts forked on 1-4 workers and in
# shuffled order), the filter's exact counts, a launch that died
# mid-lane in a later chunk, the commuting-blocks guard on global
# atomics, every simulated statistic of every kernel version and
# resident sync path against its parent-commit golden, and the resident
# reorder pin. (The GPU offload's positions and counters across
# schedules, `gpu_offload_is_schedule_independent`, run with
# thread_determinism in the thread matrix above.)
for threads in 1 2 4; do
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release -p bdm-gpu \
        --test alloc_steady -- \
        second_identical_launch_performs_zero_heap_allocations \
        second_sorted_scene_launch_performs_zero_heap_allocations \
        a_forked_launch_allocates_only_what_the_fork_join_does
    RAYON_NUM_THREADS=$threads cargo test -q --offline --release -p bdm-gpu --lib -- \
        arena_engine_matches_the_reference_bit_for_bit \
        the_lane_filter_absorbs_what_the_previous_lane_logged_and_nothing_else \
        a_kernel_panic_does_not_leak_its_batch_into_the_next_launch \
        a_global_atomic_in_a_kernel_that_declares_commuting_blocks_panics \
        sampled_tracing_counts_every_warps_shared_accesses_once \
        step_reports_match_the_parent_goldens
done
cargo test -q --offline --release -p bdm-sim --lib -- \
    resident_reorder_steps_resync_from_the_uid_diff_alone
cargo clippy --offline --workspace --all-targets -- -D warnings
./scripts/fmt.sh --check
# Informational, not a gate: the non-test, non-comment size of the code
# the simplification PRs report against.
./scripts/loc.sh crates/gpu/src crates/sim/src/mech.rs crates/sim/src/diffusion.rs
./scripts/loc.sh crates/sim/src/{rm,exec,operation,checkpoint}.rs crates/soa/src/{column,perm}.rs
./scripts/loc.sh crates/bench/src
