#!/usr/bin/env bash
# AddressSanitizer lane: the tests that drive the workspace's `unsafe`
# code, built with `-Zsanitizer=address` on the nightly toolchain, so an
# out-of-bounds or use-after-free access through a raw pointer or a
# reinterpreted slice (the step buffer's typed views, the CSR build's
# disjoint scatter, the births written into reserved column room, the
# parallel integration, the diffusion lattices' first touch) aborts the
# test that made it. Needs `cargo +nightly`; fully offline. The lib
# tests of the crates that hold `unsafe` code (the step buffer's views
# and the diffusion windows it lends among them:
# `four_fields_hold_the_step_buffer_at_its_largest_borrower`), then by
# name: the births-in-place and reorder oracles, the stamps' skips
# through a whole step, and every host environment's schedule matrix at
# two workers.
# Usage: scripts/sanitize.sh   (artifacts in target/x86_64-unknown-linux-gnu/)
set -euo pipefail
cd "$(dirname "$0")/.."

# The sanitizer needs an explicit target; the x86-64-v3 flag of
# .cargo/config.toml is repeated because RUSTFLAGS replaces it.
export RUSTFLAGS="-Zsanitizer=address -C target-cpu=x86-64-v3"
asan=(cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu)

"${asan[@]}" -p bdm-soa -p bdm-sim -p bdm-grid -p bdm-morton -p bdm-math --lib
"${asan[@]}" -p bdm-morton --test proptests -- radix_argsort_matches_the_comparison_sort
"${asan[@]}" -p bdm-sim --test proptests -- \
    births_in_place_match_the_buffered_merge \
    sort_storage_orders_like_the_comparison_sort
"${asan[@]}" --test f32simd_determinism -- \
    a_frozen_scene_re_verifies_nothing_after_step_zero \
    diameters_grown_through_chunk_views_reach_the_grid_and_the_f32_tile
RAYON_NUM_THREADS=2 "${asan[@]}" --test thread_determinism
