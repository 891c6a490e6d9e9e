#!/usr/bin/env bash
# Bench regression gate: runs the quick-mode perf benches and fails if the
# optimized paths lost to their baselines on a multi-core runner.
#
#   service_throughput  N sessions one-by-one vs  N sessions on N threads
#   svm_train/round     cold retrain          vs  warm-started retrain
#   obs_overhead        untimed baseline      vs  fully instrumented service
#   wal_flush           volatile close path   vs  WAL-fsynced close path
#
# The obs_overhead pair is held to OVERHEAD_MARGIN_PCT (5%): the
# instrumented service must stay within 5% of the counters-only baseline,
# the budget that keeps tracing always-on in production.
#
# The wal_flush pair is held to WAL_MARGIN_PCT (50%): a durably
# acknowledged session (WAL framing + CRC + fsync on the close) may cost
# at most half again the volatile close path. That is the documented
# durability tax — a blown margin means the WAL hot path regressed.
#
# The service_throughput and wal_flush benches also print
# `service_latency/<stage>/<pN>` percentile lines read back from the
# service's own metrics endpoint (wal_flush contributes the
# flush_durability stage); they are persisted to
# bench-results/BENCH_latency.json (and their presence is enforced — a
# silent loss of the metrics endpoint would otherwise look like a green
# run).
#
# End-to-end latency over real TCP is not measured here: that is
# benchmark/ (see benchmark/README.md), which CI smoke-runs separately.
#
# On a single-core machine the parallel paths fall back to (or degenerate
# into) the serial ones, so the gate only *reports* there — the comparison
# is enforced when `nproc > 1` (the CI bench job). The training-path
# checks additionally require the warm round to actually be faster than
# the cold one by the margin, not merely no slower. Parsed numbers are
# written to bench-results/BENCH_ci.json as a workflow artifact, in the
# same shape as BENCH_training.json's "runs" entries.
#
# Usage: tools/bench_check.sh [output-dir]   (default: bench-results)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench-results}"
mkdir -p "$OUT_DIR"
RAW="$OUT_DIR/bench_raw.txt"
JSON="$OUT_DIR/BENCH_ci.json"
LAT_JSON="$OUT_DIR/BENCH_latency.json"

# The relative slowdown the parallel path is allowed before the gate trips
# (absorbs runner noise; any real regression is far larger than 10%).
MARGIN_PCT=10
# The instrumentation budget: timed metrics may cost at most this much
# over the untimed baseline.
OVERHEAD_MARGIN_PCT=5
# The durability budget: a WAL-fsynced close path may cost at most this
# much over the volatile one.
WAL_MARGIN_PCT=50

# Portable core detection: nproc (GNU), sysctl (macOS/BSD), getconf
# (POSIX); 1 if all else fails so the gate degrades to report-only.
CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
echo "bench_check: running quick-mode benches on ${CORES} core(s)"

: > "$RAW"
BENCH_QUICK=1 cargo bench -p lrf-bench --bench service_throughput | tee -a "$RAW"
BENCH_QUICK=1 cargo bench -p lrf-bench --bench svm_train | tee -a "$RAW"
BENCH_QUICK=1 cargo bench -p lrf-bench --bench obs_overhead | tee -a "$RAW"
BENCH_QUICK=1 cargo bench -p lrf-bench --bench wal_flush | tee -a "$RAW"

# Lines look like:  bench svm_train/round/cold/120   344,467 ns/iter
# The harness prints "123.4" below 1e3, comma-grouped integers below 1e9,
# and "1.234e9" above; normalize all three to integer nanoseconds so the
# shell arithmetic below never sees a decimal point or exponent.
parse() {
    awk '$1 == "bench" && $NF == "ns/iter" {
        v = $(NF-1); gsub(",", "", v); printf "%s %.0f\n", $2, v + 0
    }' "$RAW"
}

lookup() { # lookup <name> -> ns (empty if absent)
    parse | awk -v n="$1" '$1 == n { print $2 }'
}

fail=0
checks_json=""

check_pair() { # check_pair <label> <serial_name> <parallel_name>
    local label="$1" serial_name="$2" parallel_name="$3"
    local serial_ns parallel_ns verdict
    serial_ns="$(lookup "$serial_name")"
    parallel_ns="$(lookup "$parallel_name")"
    if [ -z "$serial_ns" ] || [ -z "$parallel_ns" ]; then
        echo "bench_check: FAIL ${label}: missing bench output (${serial_name}=${serial_ns:-?} ${parallel_name}=${parallel_ns:-?})"
        fail=1
        return
    fi
    local limit=$(( serial_ns + serial_ns * MARGIN_PCT / 100 ))
    local speedup
    speedup="$(awk -v s="$serial_ns" -v p="$parallel_ns" 'BEGIN { printf "%.2f", s / p }')"
    if [ "$CORES" -gt 1 ] && [ "$parallel_ns" -gt "$limit" ]; then
        verdict="fail"
        fail=1
        echo "bench_check: FAIL ${label}: parallel ${parallel_ns} ns > serial ${serial_ns} ns (+${MARGIN_PCT}% margin) on ${CORES} cores"
    else
        verdict="ok"
        echo "bench_check: ok   ${label}: serial ${serial_ns} ns, parallel ${parallel_ns} ns (speedup ${speedup}x)"
    fi
    checks_json="${checks_json}${checks_json:+,}
    { \"check\": \"${label}\", \"serial_ns\": ${serial_ns}, \"parallel_ns\": ${parallel_ns}, \"speedup\": ${speedup}, \"verdict\": \"${verdict}\" }"
}

check_faster() { # check_faster <label> <baseline_name> <optimized_name>
    # Stricter than check_pair: the optimized path must beat the baseline
    # by at least MARGIN_PCT on a multi-core runner (a warm start that is
    # merely "no slower" means the seeding is broken).
    local label="$1" baseline_name="$2" optimized_name="$3"
    local baseline_ns optimized_ns verdict
    baseline_ns="$(lookup "$baseline_name")"
    optimized_ns="$(lookup "$optimized_name")"
    if [ -z "$baseline_ns" ] || [ -z "$optimized_ns" ]; then
        echo "bench_check: FAIL ${label}: missing bench output (${baseline_name}=${baseline_ns:-?} ${optimized_name}=${optimized_ns:-?})"
        fail=1
        return
    fi
    local limit=$(( baseline_ns - baseline_ns * MARGIN_PCT / 100 ))
    local speedup
    speedup="$(awk -v s="$baseline_ns" -v p="$optimized_ns" 'BEGIN { printf "%.2f", s / p }')"
    if [ "$CORES" -gt 1 ] && [ "$optimized_ns" -gt "$limit" ]; then
        verdict="fail"
        fail=1
        echo "bench_check: FAIL ${label}: optimized ${optimized_ns} ns not ${MARGIN_PCT}% under baseline ${baseline_ns} ns on ${CORES} cores"
    else
        verdict="ok"
        echo "bench_check: ok   ${label}: baseline ${baseline_ns} ns, optimized ${optimized_ns} ns (speedup ${speedup}x)"
    fi
    checks_json="${checks_json}${checks_json:+,}
    { \"check\": \"${label}\", \"serial_ns\": ${baseline_ns}, \"parallel_ns\": ${optimized_ns}, \"speedup\": ${speedup}, \"verdict\": \"${verdict}\" }"
}

check_overhead() { # check_overhead <label> <baseline_name> <instrumented_name> [margin_pct]
    # Like check_pair but with an explicit overhead budget: the
    # instrumented path may cost at most that much over the baseline
    # (default: the OVERHEAD_MARGIN_PCT instrumentation budget).
    local label="$1" baseline_name="$2" instrumented_name="$3"
    local OVERHEAD_MARGIN_PCT="${4:-$OVERHEAD_MARGIN_PCT}"
    local baseline_ns instrumented_ns verdict
    baseline_ns="$(lookup "$baseline_name")"
    instrumented_ns="$(lookup "$instrumented_name")"
    if [ -z "$baseline_ns" ] || [ -z "$instrumented_ns" ]; then
        echo "bench_check: FAIL ${label}: missing bench output (${baseline_name}=${baseline_ns:-?} ${instrumented_name}=${instrumented_ns:-?})"
        fail=1
        return
    fi
    local limit=$(( baseline_ns + baseline_ns * OVERHEAD_MARGIN_PCT / 100 ))
    local overhead
    overhead="$(awk -v s="$baseline_ns" -v p="$instrumented_ns" 'BEGIN { printf "%.2f", (p - s) * 100.0 / s }')"
    if [ "$CORES" -gt 1 ] && [ "$instrumented_ns" -gt "$limit" ]; then
        verdict="fail"
        fail=1
        echo "bench_check: FAIL ${label}: instrumented ${instrumented_ns} ns > baseline ${baseline_ns} ns (+${OVERHEAD_MARGIN_PCT}% budget) — overhead ${overhead}%"
    else
        verdict="ok"
        echo "bench_check: ok   ${label}: baseline ${baseline_ns} ns, instrumented ${instrumented_ns} ns (overhead ${overhead}%)"
    fi
    checks_json="${checks_json}${checks_json:+,}
    { \"check\": \"${label}\", \"serial_ns\": ${baseline_ns}, \"parallel_ns\": ${instrumented_ns}, \"overhead_pct\": ${overhead}, \"verdict\": \"${verdict}\" }"
}

# Quick mode pins service_throughput to 4 sessions and svm_train to round
# N=120.
check_pair "service_throughput/4sessions" "service_throughput/serial/4" "service_throughput/concurrent/4"
check_faster "svm_train/round_warm_vs_cold" "svm_train/round/cold/120" "svm_train/round/warm/120"
check_overhead "obs_overhead/4sessions" "obs_overhead/untimed" "obs_overhead/timed"
check_overhead "wal_flush/durability_tax" "wal_flush/volatile" "wal_flush/durable" "$WAL_MARGIN_PCT"

# Persist the service's self-reported latency percentiles. The lines come
# from the metrics endpoint driven by the service_throughput bench, so an
# empty set means the observability layer silently broke.
lat_entries="$(parse | awk '$1 ~ /^service_latency\// {
    printf "%s    { \"name\": \"%s\", \"ns\": %s }", (n++ ? ",\n" : ""), $1, $2
}')"
if [ -z "$lat_entries" ]; then
    echo "bench_check: FAIL service_latency: no percentile lines in bench output"
    fail=1
else
    cat > "$LAT_JSON" <<EOF
{
  "bench": "service request/stage latency percentiles (self-reported by lrf-obs)",
  "command": "tools/bench_check.sh",
  "cpus": ${CORES},
  "quantile_error_bound": "1/64 relative (lrf-obs log-linear histogram)",
  "percentiles": [
${lat_entries}
  ]
}
EOF
    echo "bench_check: wrote ${LAT_JSON}"
fi

enforced=$([ "$CORES" -gt 1 ] && echo true || echo false)
cat > "$JSON" <<EOF
{
  "bench": "bench_check quick gate",
  "command": "tools/bench_check.sh",
  "cpus": ${CORES},
  "margin_pct": ${MARGIN_PCT},
  "enforced": ${enforced},
  "checks": [${checks_json}
  ]
}
EOF
echo "bench_check: wrote ${JSON}"

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAILED (parallel hot path regressed against its serial baseline)"
    exit 1
fi
echo "bench_check: all checks passed"
