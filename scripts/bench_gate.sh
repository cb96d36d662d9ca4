#!/usr/bin/env bash
# Perf-regression gate: re-emit the BENCH_*.json documents at smoke scale
# and compare them against the committed baselines under results/.
#
# Usage: scripts/bench_gate.sh [--tol=0.1]
#
# The baseline file is the whole contract. A document holds only rows the
# gate compares: modeled times, work counters and structural integers,
# each a deterministic function of the trajectory. Host wall clocks and
# counts that depend on the worker count or on the run's history are
# never written (Simulation::metrics() and `bdm-bench debug_metrics`
# publish them; benchmark/ times the layers at workload scale). The gate
# fails when
#   - a baseline document has no fresh counterpart,
#   - a fresh document lacks a baseline key or carries one the baseline
#     does not, or
#   - a value leaves its row's tolerance, in either direction: the row's
#     own `tol` (0 for exact counts, 0.02 for work counters and the
#     modeled mech / diffusion times; see emit::default_policy), else
#     --tol (default 0.1).
# Every written row must read the same at any worker count: scripts/
# verify.sh runs this script at the default count and with
# RAYON_NUM_THREADS=1.
#
# To re-baseline after an intentional change (after
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
