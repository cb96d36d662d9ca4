#!/usr/bin/env bash
# Tier-1 verification: build, test, lint — the gate every PR must pass.
# Fully offline: all third-party crates are vendored under crates/vendor.
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
        --test shard_determinism --test diffusion_parity --test resume_equivalence
done
# Portable baseline: without x86-64-v3 the lane ops compile their
# `not(avx2)` array bodies, which must produce the same bits — the lane
# kernel's oracle and pinned fingerprints, the f32 determinism and
# precision suites, and the checkpoint golden bytes.
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    -p bdm-math -p bdm-sim --lib
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    --test f32simd_determinism --test precision_claims
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline --release \
    -p bdm-sim --test checkpoint_format
# The SIMT engine's steady-state launches must not touch the heap — in
# release mode, where the optimizer decides what actually allocates.
cargo test -q --offline --release -p bdm-gpu --test alloc_steady
cargo clippy --offline --workspace --all-targets -- -D warnings
./scripts/fmt.sh --check
