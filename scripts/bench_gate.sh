#!/usr/bin/env bash
# Perf-regression gate: re-emit the BENCH_*.json documents at smoke scale
# and compare them against the committed baselines under results/.
#
# Usage: scripts/bench_gate.sh [--tol=0.1]
#
# Only deterministic metrics (modeled times, work counters, structural
# integers) are gated; host wall clocks are emitted as informational
# context and never compared. The mixed-precision rows of
# BENCH_layouts.json follow the same split: layouts.simd_*_wall_ms and
# the f64/f32 speedup ratio are informational, while the SIMD
# utilization counters (mech.simd_lanes_utilized,
# mech.f32_refresh_copies) are deterministic functions of the
# trajectory and gate at +/-2 %. The Hilbert-sharding rows split the
# same way: layouts.shard_*_wall_ms are informational, while the
# shard-map telemetry (layouts.shard_imbalance,
# layouts.shard_halo_fraction) and the System A modeled mech times
# (layouts.shard_mech_modeled_ms, layouts.shard_speedup_modeled_x)
# are deterministic and gate at +/-2 %. BENCH_checkpoint.json gates the
# stream-shape metrics (checkpoint.bytes_total, checkpoint.bytes_per_agent
# at +/-2 %; checkpoint.agents, checkpoint.sections exactly) while the
# serialize/parse wall clocks (checkpoint.write_ms, checkpoint.read_ms)
# are informational. The BENCH_gpu.json residency row (version
# v4csr_resident) gates the transfer counters (gpu.bytes_h2d,
# gpu.bytes_d2h), gpu.midstep_syncs, and gpu.resident_steps at +/-2 %,
# alongside mech.csr_rebuilds_skipped from the CPU CSR runs — together
# they pin the steady-state "device stays quiet" claim.
# BENCH_diffusion.json gates the tiled-stencil work counters
# (diffusion.voxel_updates, diffusion.substeps, diffusion.simd_rows,
# diffusion.batch_substances exactly; diffusion.interior_fraction at
# +/-2 %) and the System A modeled engine times
# (diffusion.modeled_ms, diffusion.speedup_modeled_x at +/-2 %), while
# diffusion.step_wall_ms / diffusion.batch_wall_ms are informational;
# the bench_diffusion command itself asserts scalar-vs-SIMD bitwise
# parity and the >=1.5x modeled 64^3 speedup before emitting anything.
# To re-baseline after an intentional perf change (after
# `cargo build --release --offline -p bdm-bench`):
#   BDM_BENCH_SCALE=smoke target/release/bdm-bench bench_json --out=results
#   BDM_BENCH_SCALE=smoke target/release/bdm-bench bench_layouts --json=results
#   BDM_BENCH_SCALE=smoke target/release/bdm-bench bench_checkpoint --json=results
#   BDM_BENCH_SCALE=smoke target/release/bdm-bench bench_diffusion --json=results
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH="$(mktemp -d)"
trap 'rm -rf "$FRESH"' EXIT

# One build, five runs of the one binary.
cargo build --release --offline -p bdm-bench
BENCH="${CARGO_TARGET_DIR:-target}/release/bdm-bench"
export BDM_BENCH_SCALE=smoke
"$BENCH" bench_json --out="$FRESH"
"$BENCH" bench_layouts --json="$FRESH"
"$BENCH" bench_checkpoint --json="$FRESH"
"$BENCH" bench_diffusion --json="$FRESH"
"$BENCH" bench_gate --baseline=results --fresh="$FRESH" "$@"
