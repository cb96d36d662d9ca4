#!/usr/bin/env bash
# rustfmt over our own packages only — the workspace also contains
# vendored third-party crates (vendor/*) that must keep upstream style.
# Usage: scripts/fmt.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

OWN_PACKAGES=(
  biodynamo
  bdm-math
  bdm-soa
  bdm-morton
  bdm-kdtree
  bdm-grid
  bdm-device
  bdm-metrics
  bdm-gpu
  bdm-sim
  bdm-roofline
  bdm-bench
)

args=()
for p in "${OWN_PACKAGES[@]}"; do
  args+=(-p "$p")
done

if [[ "${1:-}" == "--check" ]]; then
  cargo fmt "${args[@]}" -- --check
else
  cargo fmt "${args[@]}"
fi
