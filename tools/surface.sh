#!/usr/bin/env bash
# Code-surface report and ratchet: how much first-party code there is to
# read, how much of it is public and how many values a caller can set.
# ROADMAP aim 2 wants all three numbers to go down; record the per-crate
# rows in the CHANGES.md line of any PR that claims to simplify, and lower
# tools/surface.baseline to the new totals.
#
# Per first-party crate (every .rs file under crates/<c>/src, subdirectories
# such as src/bin included; vendored stand-ins excluded):
#   code  lines before the file's first column-0 `#[cfg(test)]` (its test
#         module), not counting blank lines and lines that hold only a
#         `//` comment (docs included)
#   pub   lines in that same region declaring a public item
#         (`pub fn|struct|enum|trait|type|const|mod|use`)
#   fields  lines in that same region declaring a public field
#         (`pub <name>:`) — each is a value a caller can set independently,
#         so a config knob shows here even though it adds no item
# The examples/ row is reported beside the crates, not in their total.
#
# Usage: tools/surface.sh [--check]
#   --check  exit 1 when the `total` row's code, pub or fields count
#            exceeds tools/surface.baseline (one line:
#            "<code> <pub> <fields>"); CI runs this

set -euo pipefail
cd "$(dirname "$0")/.."

# count <file>... -> "<code> <pub> <fields>"
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|mod|use)/ { pub++ }
        /^[[:space:]]+pub [a-z_0-9]+:/ { fields++ }
        END { printf "%d %d %d\n", code, pub, fields }
    ' "$@"
}

printf '%-14s %6s %5s %6s\n' crate code pub fields
total_code=0
total_pub=0
total_fields=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ "$crate" != vendor ] || continue
    mapfile -t files < <(find "$dir"src -name '*.rs' | sort)
    read -r code pub fields < <(count "${files[@]}")
    printf '%-14s %6d %5d %6d\n' "lrf-$crate" "$code" "$pub" "$fields"
    total_code=$((total_code + code))
    total_pub=$((total_pub + pub))
    total_fields=$((total_fields + fields))
done
printf '%-14s %6d %5d %6d\n' total "$total_code" "$total_pub" "$total_fields"
read -r code pub fields < <(count examples/*.rs)
printf '%-14s %6d %5d %6d\n' examples/ "$code" "$pub" "$fields"

if [ "${1:-}" = --check ]; then
    read -r base_code base_pub base_fields < tools/surface.baseline
    if [ "$total_code" -gt "$base_code" ] || [ "$total_pub" -gt "$base_pub" ] ||
        [ "$total_fields" -gt "$base_fields" ]; then
        echo "surface: total $total_code lines / $total_pub pub / $total_fields fields exceeds baseline $base_code / $base_pub / $base_fields" >&2
        exit 1
    fi
    echo "surface: within baseline $base_code / $base_pub / $base_fields"
fi
