#!/usr/bin/env bash
# DESIGN.md §6 (experiment index) and §8 (final model structure) name the
# code they describe in backticks, and so does every line of a current-
# state page such as EXPERIMENTS.md; this fails when one of those names no
# longer exists, so a rename or a deletion cannot leave the map stale.
# A file named DESIGN.md is checked in §6 and §8 only; any other document
# on every line, up to a closing "## Index of the per-PR logs", which
# quotes their headings as they stood (the logs under results/log/ are
# history and are not checked).
# What is checked, by the shape of the backticked text:
#   file        `kernels/layout.rs`, `results/x.txt`: the path exists from
#               the repository root, or some file under crates/ ends in it
#   module path `bdm-gpu::kernels::dynpar`, `bdm_grid::GridGeometry`: the
#               crate is a package under crates/, every further segment a
#               module file or directory of it, the last one may instead
#               be an item defined in the crate
#   type::item  `LaneScratch::stage`, `ThreadCtx::atomic_*`: the type is
#               defined and so is the item (fn, const, field or variant)
#   type        `ForceKernel`: a struct, enum, trait, type or union
#   CONSTANT    `SYSTEM_A`: a const or static, or an environment variable
#               some source reads (`"RAYON_NUM_THREADS"`)
#   snake_name  `csr_sweep`, `cell_agents()`: a fn, module, const or
#               static, or the stem of a `.rs` file (a test target); on a
#               whole-document check also a name some source quotes
#               (`"fig8_fig9"`, `"frozen_dense"`, `"run_s"`: a bdm-bench
#               command, a workload, a metric)
# Anything else — one plain word, an expression, a metric name, a
# command line — is prose and is not checked. Definitions are looked for
# in the workspace's own Rust source (crates/, src/, tests/, examples/)
# and in vendor/rayon, whose API the text names; a whole-document check
# also reads benchmark/src, which defines the workloads and their metrics.
# Usage: scripts/doc_names.sh [DESIGN.md | EXPERIMENTS.md | <doc>]
set -euo pipefail
cd "$(dirname "$0")/.."
doc=${1:-DESIGN.md}
src=(crates src tests examples vendor/rayon)
# The lines checked: DESIGN.md's two sections, or the whole document.
if [[ $(basename "$doc") == DESIGN.md ]]; then
    whole=0 scope="§6 / §8"
else
    whole=1 scope="(every line)"
    src+=(benchmark/src)
fi
std_types=" Vec Copy Clone Option Result Box String Send Sync Default "
std_items=" set_len assume_init from_raw_parts_mut available_parallelism should_panic "

defined() { grep -rqE --include='*.rs' -- "$1" "${src[@]}"; }
def_of() { defined "\\b(fn|struct|enum|trait|type|union|const|static|mod|macro_rules!)[[:space:]]+$1\\b"; }
type_of() { defined "\\b(struct|enum|trait|type|union)[[:space:]]+$1\\b"; }
member_of() {
    defined "\\b(fn|const)[[:space:]]+$1\\b|^[[:space:]]*(pub(\\([a-z]+\\))?[[:space:]]+)?$1[[:space:]]*(:[^:]|[,({]|$)"
}

# `bdm-x::a::b`: crate dir, then module files or directories, then
# (last segment only) any item of the crate.
module_path() {
    local segs seg dir crate i
    IFS=: read -ra segs <<<"${1//::/:}"
    crate=${segs[0]//_/-}
    dir=$(grep -lE "^name = \"$crate\"$" crates/*/Cargo.toml 2>/dev/null | head -1)
    [[ -n $dir ]] || return 1
    dir=${dir%/Cargo.toml}
    local root=$dir
    dir=$dir/src
    for ((i = 1; i < ${#segs[@]}; i++)); do
        seg=${segs[i]}
        if [[ -f $dir/$seg.rs || -d $dir/$seg ]]; then
            dir=$dir/$seg
        elif ((i == ${#segs[@]} - 1)); then
            grep -rqE --include='*.rs' \
                "\\b(fn|struct|enum|trait|type|union|const|static|mod)[[:space:]]+$seg\\b" "$root"
        else
            return 1
        fi
    done
}

check() {
    local name=${1%()} kind
    case $name in
    *[[:space:]]* | *[!A-Za-z0-9_:./*-]*) return 0 ;;
    esac
    if [[ $name =~ ^[A-Za-z0-9_./-]+\.(rs|txt|json|md|toml|sh)$ ]]; then
        kind=file
        [[ -f $name ]] || find crates -type f -path "*/$name" | grep -q .
    elif [[ $name =~ ^bdm[-_][a-z]+(::[A-Za-z0-9_]+)*$ ]]; then
        kind="module path"
        module_path "$name"
    elif [[ $name =~ ^([A-Z][A-Za-z0-9]*)::([A-Za-z0-9_]+)(\*?)$ ]]; then
        kind=item
        local ty=${BASH_REMATCH[1]} item=${BASH_REMATCH[2]}
        [[ -n ${BASH_REMATCH[3]} ]] && item="$item[A-Za-z0-9_]*"
        type_of "$ty" && member_of "$item"
    elif [[ $name =~ ^[A-Z][a-z][A-Za-z0-9]*$ ]]; then
        [[ $std_types == *" $name "* ]] && return 0
        kind=type
        type_of "$name"
    elif [[ $name =~ ^[A-Z][A-Z0-9]*_[A-Z0-9_]+$ ]]; then
        kind=constant
        defined "\\b(const|static)[[:space:]]+$name\\b|\"$name\""
    elif [[ $name =~ ^[a-z][a-z0-9]*_[a-z0-9_]+$ ]]; then
        [[ $std_items == *" $name "* ]] && return 0
        kind=item
        def_of "$name" || find "${src[@]}" -name "$name.rs" | grep -q . ||
            { ((whole)) && defined "\"$name\""; }
    else
        return 0
    fi || {
        echo "$doc:$line: \`$1\` names no $kind in the workspace" >&2
        return 1
    }
    checked=$((checked + 1))
}

checked=0
failed=0
while IFS=$'\t' read -r line name; do
    check "$name" || failed=$((failed + 1))
done < <(awk -v whole="$whole" '
    /^## / { on = ($2 == "6." || $2 == "8.") }
    whole && /^## Index of the per-PR logs/ { exit }
    on || whole {
        s = $0
        while (match(s, /`[^`]+`/)) {
            printf "%d\t%s\n", NR, substr(s, RSTART + 1, RLENGTH - 2)
            s = substr(s, RSTART + RLENGTH)
        }
    }' "$doc")

if ((failed > 0)); then
    echo "doc_names: $failed of the names in $doc $scope are stale" >&2
    exit 1
fi
echo "doc_names: all $checked checked names in $doc $scope exist"
