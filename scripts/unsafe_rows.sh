#!/usr/bin/env bash
# Every `unsafe` site of the workspace's crates has its row in
# EXPERIMENTS.md "`unsafe`, with its number": per file, the number of
# sites (ROADMAP 7's count, `grep -rnw unsafe --include=*.rs crates/*/src
# | grep -v ':\s*//'`) must equal the number of that table's rows whose
# site cell names the file (`soa/src/buffer.rs:29`, relative to crates/).
# A site added without a row, a row left behind by a deleted site, or a
# row moved to another file fails, naming the file and both counts.
# Usage: scripts/unsafe_rows.sh [EXPERIMENTS.md]
set -euo pipefail
cd "$(dirname "$0")/.."
doc=${1:-EXPERIMENTS.md}

declare -A sites rows
while read -r n file; do
    sites[$file]=$n
done < <(grep -rnw unsafe --include=*.rs crates/*/src | grep -v ':\s*//' |
    cut -d: -f1 | sed 's|^crates/||' | sort | uniq -c)
# Table rows of the section: `| `<file>:<line>` …`, up to the next `## `.
while read -r n file; do
    rows[$file]=$n
done < <(awk '/^## `unsafe`, with its number/ { on = 1; next }
              /^## / { on = 0 }
              on && /^\| `[^`:]+:[0-9]+/' "$doc" |
    sed -E 's/^\| `([^`:]+):.*/\1/' | sort | uniq -c)

if [[ ${#rows[@]} -eq 0 ]]; then
    echo "unsafe_rows: no table rows found in $doc" >&2
    exit 1
fi
status=0
for file in $(printf '%s\n' "${!sites[@]}" "${!rows[@]}" | sort -u); do
    if [[ ${sites[$file]:-0} -ne ${rows[$file]:-0} ]]; then
        echo "unsafe_rows: crates/$file has ${sites[$file]:-0} unsafe sites" \
            "but $doc has ${rows[$file]:-0} rows for it" >&2
        status=1
    fi
done
exit $status
