#!/usr/bin/env bash
# The repo's end-to-end benchmark: builds the harness (release, offline)
# and runs it. See benchmark/README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as JSON
#   benchmark/run.sh [--seed N] [--quick]
#       every workload, untraced then traced pass, every metric printed,
#       one line appended to benchmark/results/history.jsonl
set -euo pipefail
# The repo root: .cargo/config.toml (x86-64-v3) applies from here, and
# the harness writes its traces under benchmark/results/.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V)"
export BENCH_COMMIT BENCH_RUSTC

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bdm-benchmark" "$@"
