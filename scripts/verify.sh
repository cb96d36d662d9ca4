#!/usr/bin/env bash
# Tier-1 verification, the one manifest of every gate a change must pass.
# Each stage below names its tests and says why they are there; CI runs
# the stages as one job matrix read from `--list`.
# Fully offline: all third-party crates are vendored under vendor/.
# Usage: scripts/verify.sh           every stage, in order
#        scripts/verify.sh --list    the stage names, one a line
#        scripts/verify.sh <stage>   one stage
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(build test release matrix-1 matrix-2 matrix-4 portable harness gate sanitize lint)

# `cargo <args> -- <names>`, once `-- --list` has shown that every name
# selects at least one test of the invocation: a filter that matches
# nothing passes after running nothing, so a renamed or misspelled test
# would otherwise drop out of the gate silently.
named() {
    local args=() listed name
    while [[ $1 != -- ]]; do args+=("$1"); shift; done
    shift
    listed=$(cargo "${args[@]}" -- --list --format=terse)
    for name in "$@"; do
        if ! grep -qF -- "$name" <<<"$listed"; then
            echo "verify: '$name' selects no test of: cargo ${args[*]}" >&2
            return 1
        fi
    done
    cargo "${args[@]}" -- "$@"
}

nightly() { cargo +nightly --version >/dev/null 2>&1; }

# Each stage runs in a subshell, so what it exports ends with it.
stage() (
    echo "== verify: $1" >&2
    case $1 in
    build)
        # `--locked`: a manifest edit that leaves the root Cargo.lock stale
        # fails here instead of rewriting the lock on the next build.
        cargo build --release --offline --locked --workspace ;;
    test)
        cargo test -q --offline --workspace ;;
    release)
        # The contracts, in release mode at the default worker count (the
        # optimizer must not re-associate f64 sums or change the f32 SIMD
        # rounding): the paper's Improvement I claims (fp32-vs-fp64
        # envelope, four-way bitwise determinism of the mixed-precision
        # pass); serial == sharded at 1 / 2 / 4 / 8 shards across every
        # environment with churn, migration and rebalancing; the diffusion
        # field bitwise the out-of-place reference's, against the bits of
        # the double-buffered engine it replaced, over the slab matrix, and
        # on its closed-form anchors; checkpoint at k, restore, run to n
        # == an uninterrupted run, the committed v3 fixture byte for byte
        # (v1 / v2 still restore) and malformed streams as errors; division
        # waves against the bits of the engine that kept a behavior list
        # per agent (the determinism suites compare a run with itself);
        # and the allocations that engine could not meet: a wave and a
        # restore allocate a constant, a warm reorder nothing on one
        # worker.
        cargo test -q --offline --release --test precision_claims --test f32simd_determinism
        cargo test -q --offline --release -p bdm-sim --test shard_determinism \
            --test diffusion_parity --test diffusion_solver --test resume_equivalence \
            --test checkpoint_format --test birth_goldens --test alloc_births
        # Both lane bodies of the CSR voxel walk against their retained
        # per-agent kernels, bit for bit (the 8-lane f32 body against the
        # gather kernel, the f64 body against the scalar one), the f32
        # body's radius gate at exactly the radius and on a lone agent, and the
        # stage count (non-empty voxels plus part splits, sorted or not);
        # and a resident GPU step finding a host reorder from the uid
        # diff alone (transfers and checkpoint pinned to the commit that
        # still announced it).
        named test -q --offline --release -p bdm-sim --lib -- \
            staged_lanes_match_the_per_agent_kernel \
            the_radius_gate_lists_boundary_and_own_blocks \
            staged_f64_lanes_match_the_scalar_kernel_bitwise \
            every_voxel_is_staged_once \
            a_step_on_shuffled_storage_moves_every_agent_as_the_oracle_does \
            resident_reorder_steps_resync_from_the_uid_diff_alone ;;
    matrix-1 | matrix-2 | matrix-4)
        # The bitwise contracts under a real schedule: every `par_*` loop
        # and every SIMT launch whose blocks commute forks onto this many
        # workers (4 oversubscribes a 2-processor runner), and serial ==
        # parallel == sharded == resumed must hold at each count;
        # thread_determinism also compares 1 / 2 / 4 workers and shuffled
        # block schedules inside one process, the GPU offload's among them.
        export RAYON_NUM_THREADS=${1#matrix-}
        cargo test -q --offline --release --test csr_determinism \
            --test scheduler_determinism --test f32simd_determinism --test thread_determinism
        cargo test -q --offline --release -p bdm-sim --test shard_determinism \
            --test diffusion_parity --test resume_equivalence --test birth_goldens
        # A repeated SIMT launch allocates nothing on one worker (cold or
        # warm L2, random or sorted storage, one lane) and only what the
        # fork-join itself does on two, at any scene size.
        cargo test -q --offline --release -p bdm-gpu --test alloc_steady
        # The grid and soa lib tests: the linked-list build's racing
        # insertions and their relink pass, the CSR key pass and skip
        # check in their parts, and the gathers on either side of the
        # fork point, on this many default workers.
        cargo test -q --offline --release -p bdm-grid -p bdm-soa --lib
        # The fork-join executor itself: index-ordered results, the
        # sequential fold's bits, nested calls inline, panics, the shuffled
        # schedule, and blocks that differ in size by at most one.
        cargo test -q --offline --release -p rayon
        # The reorder's radix argsort and gathers against the comparison
        # sort, and daughters written into the columns against the
        # buffered merge (both pin 1 / 2 / 4 workers and shuffled
        # schedules inside; this varies the pool around them); a warm
        # reorder allocates as much at 12³ as at 24³ cells on two workers,
        # a wave as much at 14³ as at 28³.
        named test -q --offline --release -p bdm-morton --test proptests -- \
            radix_argsort_matches_the_comparison_sort
        named test -q --offline --release -p bdm-sim --test proptests --test alloc_births -- \
            sort_storage_orders_like_the_comparison_sort \
            births_in_place_match_the_buffered_merge \
            a_warmed_reorder_allocates_a_constant \
            a_division_wave_allocates_a_constant
        # The stamps' skips (reorder scan, CSR rebuild, largest diameter)
        # against the full checks they replace on random edit sequences,
        # the largest diameter's one scan per change, the merge leaving
        # that memo to the views; and the resident GPU step's uid diff.
        named test -q --offline --release -p bdm-sim --lib -- \
            position_stamp_skips_match_the_full_checks \
            the_stamp_oracle_reaches_every_skip \
            largest_diameter_scans_once_per_change \
            merges_leave_the_diameter_memo_to_the_views \
            resident_reorder_steps_resync_from_the_uid_diff_alone
        # The global CSR sweep in bands, each integrated once the next is
        # swept: one-chunk bands (one per chunk on a dense cloud, merged
        # for the stencil's reach on a sparse slab) against one band, bit
        # for bit and counter for counter, at 1 / 2 / 4 workers and
        # shuffled inside; and the step buffer at two bands'
        # displacements, not one per agent.
        named test -q --offline --release -p bdm-sim --lib -- \
            banded_sweeps_match_the_one_band_sweep \
            a_csr_step_of_three_bands_holds_at_most_16_bytes_per_agent
        # The SIMT engine's trace path: the log-time coalescer and the
        # lane filter in front of it against the retained BTreeMap oracle
        # on random lane scripts (commuting ones forked on 1-4 workers and
        # shuffled), the filter's exact counts, a launch that died mid-lane
        # leaving the next nothing, the commuting-blocks guard on global
        # atomics, sampled tracing, and every kernel version's and resident
        # sync path's step report against its parent-commit golden; the
        # buckets' code words at every step length, across cuts, and what
        # they hold on a sorted force launch.
        named test -q --offline --release -p bdm-gpu --lib -- \
            arena_engine_matches_the_reference_bit_for_bit \
            a_bucket_codes_every_step_exactly_and_resumes_after_a_cut \
            a_bucket_drained_across_cuts_streams_what_the_reference_does \
            a_sorted_force_launch_holds_at_most_two_and_a_half_bytes_a_transaction \
            the_lane_filter_absorbs_what_the_previous_lane_logged_and_nothing_else \
            a_kernel_panic_does_not_leak_its_batch_into_the_next_launch \
            a_global_atomic_in_a_kernel_that_declares_commuting_blocks_panics \
            sampled_tracing_counts_every_warps_shared_accesses_once \
            step_reports_match_the_parent_goldens ;;
    portable)
        # Without x86-64-v3 the lane ops of `bdm_math::simd` compile their
        # `not(avx2)` array bodies, which must produce the same bits: the
        # lane kernels' oracles and pinned fingerprints (the f64 ops' array
        # bodies have no other coverage), the f32 determinism and precision
        # suites, the checkpoint golden bytes, the division-wave goldens
        # and the diffusion goldens (the sweep's row loop is vectorised by
        # the compiler, so "same bits at SSE2 width" is held by them, not
        # by argument). A second set of artifacts in target/.
        export RUSTFLAGS="-C target-cpu=x86-64"
        cargo test -q --offline --release -p bdm-math -p bdm-sim --lib
        cargo test -q --offline --release --test f32simd_determinism --test precision_claims
        cargo test -q --offline --release -p bdm-sim --test checkpoint_format \
            --test diffusion_parity --test birth_goldens ;;
    harness)
        # The benchmark harness (its own package under benchmark/, its
        # artifacts in benchmark/target/) builds, passes its unit tests and
        # runs every workload once at one-eighth size against this tree, so
        # a change to the API it calls fails here, not in the next
        # benchmark run. `--quick` records nothing. `--locked`: a change
        # that adds or drops a crate edge fails here instead of rewriting
        # benchmark/Cargo.lock, which only a benchmark change may touch.
        cargo build --offline --locked --release --manifest-path benchmark/Cargo.toml
        cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
        benchmark/run.sh --quick ;;
    gate)
        # The BENCH_*.json documents at smoke scale against results/
        # (its `bench_layouts` and `bench_diffusion` runs are the tables'
        # smokes; `bench_diffusion` asserts its own parity and modeled
        # speedup), and every scene's metrics document. Every row a
        # document holds is gated, so the documents run twice: at the
        # default worker count and on one worker, where a row whose value
        # or key set depends on the worker count fails.
        ./scripts/bench_gate.sh
        RAYON_NUM_THREADS=1 ./scripts/bench_gate.sh
        BDM_BENCH_SCALE=smoke "${CARGO_TARGET_DIR:-target}/release/bdm-bench" debug_metrics >/dev/null ;;
    sanitize)
        # AddressSanitizer over the tests that drive the workspace's
        # `unsafe` code, so an out-of-bounds or use-after-free access
        # through a raw pointer or a reinterpreted slice (the step buffer's
        # typed views and the diffusion windows it lends, the radix
        # argsort's disjoint scatter, births written into reserved column
        # room, the lattices' first touch, the AVX2 lane ops) aborts the
        # test that made it: the lib tests of the crates that hold it or
        # drive it (bdm-grid's CSR builds borrow the step buffer's `u32`
        # view; bdm-sim's include the banded sweep's two tests,
        # banded_sweeps_match_the_one_band_sweep and, debug builds only,
        # a_stencil_reading_an_integrated_band_panics, whose bands skip
        # the reach merge), the births-in-place and reorder oracles, the
        # stamps' skips through a whole step, and every host environment's
        # schedule matrix at two workers. Debug build, artifacts in target/x86_64-unknown-linux-gnu/;
        # RUSTFLAGS replaces .cargo/config.toml's flag, so it is repeated.
        if ! nightly; then
            echo "verify: stage sanitize needs the nightly toolchain (cargo +nightly)" >&2
            exit 1
        fi
        export RUSTFLAGS="-Zsanitizer=address -C target-cpu=x86-64-v3"
        asan=(+nightly test -q --offline --target x86_64-unknown-linux-gnu)
        cargo "${asan[@]}" -p bdm-soa -p bdm-sim -p bdm-grid -p bdm-morton -p bdm-math --lib
        named "${asan[@]}" -p bdm-morton --test proptests -- \
            radix_argsort_matches_the_comparison_sort
        named "${asan[@]}" -p bdm-sim --test proptests -- \
            births_in_place_match_the_buffered_merge \
            sort_storage_orders_like_the_comparison_sort
        named "${asan[@]}" --test f32simd_determinism -- \
            a_frozen_scene_re_verifies_nothing_after_step_zero \
            diameters_grown_through_chunk_views_reach_the_grid_and_the_f32_tile
        RAYON_NUM_THREADS=2 cargo "${asan[@]}" --test thread_determinism ;;
    lint)
        # Includes the workspace lints of Cargo.toml: every `unsafe` block
        # carries a `SAFETY:` note, and an `unsafe fn` wraps and justifies
        # each unsafe operation in its body.
        cargo clippy --offline --workspace --all-targets -- -D warnings
        # Our own packages only: vendored crates keep upstream style.
        ./scripts/fmt.sh --check
        # Rustdoc over our own packages, warnings denied: an intra-doc
        # link to an item that does not exist, or that is private where
        # the linking docs are public, fails here.
        RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
            --exclude parking_lot --exclude proptest --exclude rand --exclude rayon
        # Every file, module path and type / item DESIGN.md's experiment
        # index (§6) and model structure (§8) name in backticks exists, and
        # so does every one the current-state page EXPERIMENTS.md names
        # (its per-PR logs under results/log/ are history, not checked).
        ./scripts/doc_names.sh
        ./scripts/doc_names.sh EXPERIMENTS.md
        # Every `EXPERIMENTS.md "<title>"` quote in CHANGES.md, ROADMAP.md
        # and DESIGN.md starts a title of EXPERIMENTS.md or of a log it
        # links, and every relative link of EXPERIMENTS.md, DESIGN.md and
        # README.md names a file.
        ./scripts/doc_refs.sh
        # Every `unsafe` site keeps its place with a number: per file, the
        # sites equal the rows of EXPERIMENTS.md "`unsafe`, with its
        # number" that name it, so a site cannot arrive without the
        # measurement that pays for it, nor a row outlive its site.
        ./scripts/unsafe_rows.sh
        # Informational, not a gate: the non-test, non-comment size of the
        # code the simplification PRs report against.
        ./scripts/loc.sh crates/gpu/src crates/sim/src/mech.rs crates/sim/src/diffusion.rs
        ./scripts/loc.sh crates/sim/src/{rm,exec,operation,checkpoint}.rs crates/soa/src/{column,perm,buffer}.rs
        ./scripts/loc.sh crates/grid/src/csr.rs
        ./scripts/loc.sh crates/bench/src ;;
    *)
        echo "verify: unknown stage '$1'; the stages are: ${STAGES[*]}" >&2
        exit 2 ;;
    esac
)

case $# in
0)
    for s in "${STAGES[@]}"; do
        if [[ $s == sanitize ]] && ! nightly; then
            echo "verify: no nightly toolchain, stage sanitize skipped" >&2
            continue
        fi
        stage "$s"
    done ;;
1)
    if [[ $1 == --list ]]; then printf '%s\n' "${STAGES[@]}"; else stage "$1"; fi ;;
*)
    echo "usage: $0 [--list | <stage>]" >&2
    exit 2 ;;
esac
