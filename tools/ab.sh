#!/usr/bin/env bash
# A/B of the benchmark: a parent revision against HEAD, in alternating
# end-to-end runs, the comparison the benchmark gate makes.
#
# Usage: tools/ab.sh <parent-rev> <workload> <pairs> <first-seed>
#
# Builds benchmark/ of <parent-rev> and of HEAD, each from a `git archive`
# of the commit unpacked in one temporary directory (removed on exit), so
# nothing is built or written under the checkout, and no worktree is
# registered in .git. Uncommitted changes are not measured: commit first.
# Then runs <pairs> pairs of `--trace 0` runs of <workload> at the
# benchmark's own run length, pair k on seed <first-seed> + k, the side
# that runs first alternating by pair. A run that fails an operation or a
# correctness check (exit status 2) still prints its result line and is
# counted; any other failure stops the script.
# Prints, for every end-to-end metric BENCHMARK.json lists, the medians of
# both sides, the parent's interquartile range, and in how many pairs the
# change was better (in the metric's direction); then each side's median
# count of timed closes, the sessions a run recorded into the served log
# (peak_rss_mb grows with the log, so an RSS difference is read against
# it); then, per side, the failed operations and the runs that failed a
# correctness check.
#
# Needs git, cargo (offline), python3.

set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: tools/ab.sh <parent-rev> <workload> <pairs> <first-seed>" >&2
    exit 1
fi
parent_rev="$1"
workload="$2"
pairs="$3"
first_seed="$4"

repo="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/lrf-ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# build <side> <rev>: unpack <rev> into $tmp/<side>, build its benchmark.
build() {
    mkdir -p "$tmp/$1/src" "$tmp/$1/home"
    git -C "$repo" archive "$2" | tar -x -C "$tmp/$1/src"
    echo "ab: building $1 ($(git -C "$repo" rev-parse --short "$2"))" >&2
    CARGO_TARGET_DIR="$tmp/$1/target" cargo build -q --release --offline \
        --manifest-path "$tmp/$1/src/benchmark/Cargo.toml" >&2
}
build parent "$parent_rev"
build change HEAD

# run <side> <seed>: one end-to-end run; appends its result line to
# $tmp/<side>.jsonl (the last line of the binary's standard output) and
# its count of timed closes to $tmp/<side>.closes.
run() {
    echo "ab: $1 seed $2" >&2
    local status=0
    "$tmp/$1/target/release/lrf-benchmark" --home "$tmp/$1/home" \
        --workload "$workload" --seed "$2" --trace 0 >"$tmp/out" || status=$?
    if ((status != 0 && status != 2)); then
        echo "ab: $1 seed $2 exited with status $status" >&2
        exit 1
    fi
    tail -n 1 "$tmp/out" >>"$tmp/$1.jsonl"
    sed -n 's/^# timed close samples: //p' "$tmp/out" >>"$tmp/$1.closes"
}
for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    if ((k % 2 == 0)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

python3 - "$repo/BENCHMARK.json" "$tmp" "$workload" <<'EOF'
import json
import statistics
import sys

spec, tmp, workload = sys.argv[1:]
parent_file, change_file = f"{tmp}/parent.jsonl", f"{tmp}/change.jsonl"
metrics = json.load(open(spec))["end_to_end"]
parent = [json.loads(line) for line in open(parent_file)]
change = [json.loads(line) for line in open(change_file)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"{workload}: {len(parent)} pairs")
print(f"{'metric':<18} {'parent p50':>12} {'change p50':>12} {'parent IQR':>12} {'change wins':>12}")
for m in metrics:
    name = m["name"]
    a = [r["metrics"][name]["value"] for r in parent]
    b = [r["metrics"][name]["value"] for r in change]
    lo, hi = quartiles(a)
    better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
    wins = sum(better(x, y) for x, y in zip(a, b))
    print(
        f"{name:<18} {statistics.median(a):>12.4f} {statistics.median(b):>12.4f}"
        f" {hi - lo:>12.4f} {wins:>9}/{len(a)}"
    )
closes = {s: [int(n) for n in open(f"{tmp}/{s}.closes")] for s in ("parent", "change")}
print(
    f"{'timed closes':<18} {statistics.median(closes['parent']):>12.1f}"
    f" {statistics.median(closes['change']):>12.1f}   (median per run)"
)
for side, rows in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in rows)
    attempted = sum(r["attempted"] for r in rows)
    incorrect = sum(not r["correct"] for r in rows)
    print(f"{side}: {failed} of {attempted} operations failed; {incorrect} runs failed a check")
EOF
