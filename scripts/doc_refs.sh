#!/usr/bin/env bash
# The documents' references resolve:
# 1. every `EXPERIMENTS.md "<title>"` quote in CHANGES.md, ROADMAP.md and
#    DESIGN.md (also written `EXPERIMENTS.md, "…"` or `EXPERIMENTS.md
#    §"…"`, and broken across lines) starts some title of EXPERIMENTS.md
#    or of a log it links under results/log/: a heading, or a bold run-in
#    such as `**Steadiness re-check (…).**`. A prefix is enough, because
#    quotes shorten their titles ("Two bands of displacements");
# 2. every relative Markdown link `[…](path)` in EXPERIMENTS.md, DESIGN.md
#    and README.md names an existing file.
# A moved or renamed log, a retitled section or a misspelled quote fails,
# naming the document and what it could not find.
# Usage: scripts/doc_refs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The relative link targets of a document, each once, without their
# `#fragment`; web and mail links and in-page anchors are not files.
links() {
    { grep -oE '\]\([^) ]+\)' "$1" || true; } |
        sed -E 's/^\]\((.*)\)$/\1/; s/#.*$//' | { grep -vE '^(https?:|mailto:|$)' || true; } |
        sort -u
}

status=0
for doc in EXPERIMENTS.md DESIGN.md README.md; do
    while read -r path; do
        if [[ ! -f $path ]]; then
            echo "doc_refs: $doc links $path, which is not a file" >&2
            status=1
        fi
    done < <(links "$doc")
done

# Headings and bold run-ins of EXPERIMENTS.md and of the logs it links.
logs=()
while read -r path; do
    if [[ $path == results/log/* && -f $path ]]; then logs+=("$path"); fi
done < <(links EXPERIMENTS.md)
titles=$(
    sed -nE 's/^#+ +//p' EXPERIMENTS.md "${logs[@]}"
    { grep -ohE '\*\*[^*]+\*\*' EXPERIMENTS.md "${logs[@]}" || true; } | sed -E 's/^\*\*(.*)\*\*$/\1/'
)

quotes=0
for doc in CHANGES.md ROADMAP.md DESIGN.md; do
    # Line breaks and indentation fold to one space, so a quote that wraps
    # reads as it would on one line.
    while IFS= read -r quote; do
        quotes=$((quotes + 1))
        found=0
        while IFS= read -r title; do
            if [[ $title == "$quote"* ]]; then
                found=1
                break
            fi
        done <<<"$titles"
        if ((!found)); then
            echo "doc_refs: $doc quotes EXPERIMENTS.md \"$quote\", which starts no" \
                "title of EXPERIMENTS.md or of the ${#logs[@]} logs it links" >&2
            status=1
        fi
    done < <(tr '\n' ' ' <"$doc" | tr -s ' ' |
        { grep -oE 'EXPERIMENTS\.md,? ?(§)?"[^"]+"' || true; } | sed -E 's/^[^"]*"(.*)"$/\1/')
done

if ((status == 0)); then
    echo "doc_refs: $quotes quotes resolve in EXPERIMENTS.md and ${#logs[@]} logs; every relative link names a file"
fi
exit $status
