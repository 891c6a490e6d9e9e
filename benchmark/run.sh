#!/usr/bin/env bash
# The repo's benchmark: builds benchmark/ (a cargo package of its own) and
# runs it against the real NetServer over loopback TCP.
#
#   benchmark/run.sh [--seed S] [--workload W] [--smoke]
#       Full pass: every workload (or W), end-to-end run then traced run,
#       every metric printed by name with its unit, outputs checked,
#       result sets written to benchmark/results/.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One run, as the benchmark driver invokes it (see BENCHMARK.json):
#       the last line of standard output is the result object.
#
# Exits non-zero if the build, a run or a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/lrf-benchmark"

case " $* " in
*" --trace "*) exec "$bin" --home "$here" "$@" ;;
esac

seed=1
only=""
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 1 ;;
    esac
done

rustc_version="$(rustc --version 2>/dev/null || echo unknown)"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
# Smoke results are for a gate, not a baseline: keep them out of results/.
out="$here/results"
[ ${#smoke[@]} -eq 0 ] || out="$here/results/smoke"

for workload in ${only:-content_scan log_heavy mixed_paper flush_churn}; do
    for trace in 0 1; do
        "$bin" --home "$here" --out "$out" --workload "$workload" --seed "$seed" \
            --trace "$trace" --rustc "$rustc_version" --commit "$commit" "${smoke[@]}"
    done
done
