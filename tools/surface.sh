#!/usr/bin/env bash
# Code-surface report and ratchet: how much first-party code there is to
# read and how much of it is public. ROADMAP aim 2 wants both numbers to go
# down; record the per-crate rows in the CHANGES.md line of any PR that
# claims to simplify, and lower tools/surface.baseline to the new totals.
#
# Per first-party crate (crates/<c>/src/*.rs, vendored stand-ins excluded):
#   code  lines before the file's first column-0 `#[cfg(test)]` (its test
#         module), not counting blank lines and lines that hold only a
#         `//` comment (docs included)
#   pub   lines in that same region declaring a public item
#         (`pub fn|struct|enum|trait|type|const|mod|use`)
# The examples/ row is reported beside the crates, not in their total.
#
# Usage: tools/surface.sh [--check]
#   --check  exit 1 when the `total` row's code or pub count exceeds
#            tools/surface.baseline (one line: "<code> <pub>"); CI runs this

set -euo pipefail
cd "$(dirname "$0")/.."

# count <file>... -> "<code> <pub>"
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|mod|use)/ { pub++ }
        END { printf "%d %d\n", code, pub }
    ' "$@"
}

printf '%-14s %6s %5s\n' crate code pub
total_code=0
total_pub=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ "$crate" != vendor ] || continue
    read -r code pub < <(count "$dir"src/*.rs)
    printf '%-14s %6d %5d\n' "lrf-$crate" "$code" "$pub"
    total_code=$((total_code + code))
    total_pub=$((total_pub + pub))
done
printf '%-14s %6d %5d\n' total "$total_code" "$total_pub"
read -r code pub < <(count examples/*.rs)
printf '%-14s %6d %5d\n' examples/ "$code" "$pub"

if [ "${1:-}" = --check ]; then
    read -r base_code base_pub < tools/surface.baseline
    if [ "$total_code" -gt "$base_code" ] || [ "$total_pub" -gt "$base_pub" ]; then
        echo "surface: total $total_code lines / $total_pub pub exceeds baseline $base_code / $base_pub" >&2
        exit 1
    fi
    echo "surface: within baseline $base_code / $base_pub"
fi
