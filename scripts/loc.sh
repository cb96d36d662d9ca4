#!/usr/bin/env bash
# Non-test, non-comment line count — the size figure simplification PRs
# report: per Rust file (directories are searched) and in total, the
# lines before the file's test module (`#[cfg(test)]` directly above a
# `mod`) that are neither blank nor `//` comments (doc comments
# included). Test-only items in the middle of a file count: they are
# oracles the non-test code is written against.
# Usage: scripts/loc.sh <file-or-dir>...
set -euo pipefail
[[ $# -gt 0 ]] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }

find "$@" -type f -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_tests = 0; held = 0 }
    in_tests { next }
    held { held = 0; if (/^(pub(\([a-z]+\))? )?mod /) { in_tests = 1; next } count() }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    !/^[[:space:]]*($|\/\/)/ { count() }
    function count() { lines[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%7d %s\n", lines[ARGV[i]], ARGV[i]
        printf "%7d total\n", total
    }'
