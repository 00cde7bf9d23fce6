#!/bin/sh
# bench_diff.sh — compare the machine-steps/s metrics of two
# BENCH_*.json files (as written by scripts/bench.sh) and flag
# throughput regressions:
#
#   scripts/bench_diff.sh [-enforce] BENCH_20260809.json BENCH_now.json [min-ratio]
#
# For every benchmark present in both files, the current value is
# compared against the baseline; a ratio below min-ratio produces a
# diagnostic. The script has two modes:
#
#   warn (default): min-ratio defaults to 0.5 and the script always
#   exits 0 — a tripwire for gross regressions on noisy shared
#   runners, rendered as `::warning::` annotations by GitHub Actions.
#
#   -enforce: min-ratio defaults to 0.9 (the documented 10% regression
#   budget — see docs/performance.md and README.md) and any benchmark
#   below it, or any allocation regression, emits `::error::` and makes
#   the script exit 1. This is the PR bench gate of scripts/ci.sh's
#   bench stage; commits carrying `[bench-skip]` in their message
#   bypass the gate there, not here.
#
# allocs/op is deterministic: when both files carry it (bench.sh runs
# with -benchmem), any benchmark that was allocation-free in the
# baseline and now allocates is flagged regardless of min-ratio — the
# zero-alloc hot paths (solver stepping, telemetry sampling) must not
# silently regress. Baselines recorded before -benchmem simply skip
# this check.
#
# BenchmarkRecordWrite, BenchmarkAlertEval, BenchmarkAssignDone and
# BenchmarkUtilReportPath are additionally must-zeros: the
# flight-recorder write path (docs/recordlog.md), the alert engine's
# per-tick evaluation (docs/observability.md), the balancer's
# assign+done pair (docs/performance.md, "Request path") and every
# stage of the utilization report path (docs/performance.md,
# "Utilization report path") are documented as 0 allocs/op, so the
# current run is checked on its own — the tripwire holds even before a
# committed baseline carries the benchmark.
set -eu

enforce=0
if [ "${1:-}" = "-enforce" ]; then
    enforce=1
    shift
fi

if [ "$#" -lt 2 ]; then
    echo "usage: $0 [-enforce] baseline.json current.json [min-ratio]" >&2
    exit 2
fi
base="$1"
cur="$2"
if [ "$enforce" = 1 ]; then
    minratio="${3:-0.9}"
    level=error
else
    minratio="${3:-0.5}"
    level=warning
fi

# The JSON is machine-written, one benchmark object per line, so a sed
# scrape is reliable: "name value" pairs for benchmarks that report
# machine-steps/s, and likewise for allocs/op.
extract() {
    sed -n 's#.*"name": "\([^"]*\)".*"machine-steps/s": \([0-9.e+]*\).*#\1 \2#p' "$1"
}
extract_allocs() {
    sed -n 's#.*"name": "\([^"]*\)".*"allocs/op": \([0-9.e+]*\).*#\1 \2#p' "$1"
}

basetmp="$(mktemp)"
allocstmp="$(mktemp)"
failtmp="$(mktemp)"
trap 'rm -f "$basetmp" "$allocstmp" "$failtmp"' EXIT
extract "$base" > "$basetmp"
extract_allocs "$base" > "$allocstmp"

extract "$cur" | awk -v minratio="$minratio" -v basefile="$base" -v level="$level" '
NR == FNR { baseline[$1] = $2; next }
$1 in baseline {
    compared++
    ratio = $2 / baseline[$1]
    printf "%-60s %14.0f -> %14.0f  (%.2fx)\n", $1, baseline[$1], $2, ratio
    if (ratio < minratio) {
        flagged++
        printf "::%s::%s throughput %.0f machine-steps/s is %.2fx the %s baseline (%.0f)\n",
            level, $1, $2, ratio, basefile, baseline[$1]
    }
    next
}
{
    # A benchmark with no baseline entry is new in this run: report it
    # for the record but never gate on it — it gets a baseline the next
    # time the committed BENCH file is refreshed.
    newbench++
    printf "%-60s %14s    %14.0f  (new; informational)\n", $1, "-", $2
}
END {
    if (!compared && !newbench) {
        printf "::%s::no common machine-steps/s benchmarks between %s and the current run\n", level, basefile
        flagged++
    } else {
        printf "%d benchmark(s) compared against %s, %d new (informational), %d flagged at min-ratio %s\n",
            compared + 0, basefile, newbench + 0, flagged + 0, minratio
    }
    exit flagged ? 3 : 0
}
' "$basetmp" - || echo throughput >> "$failtmp"

# Allocation tripwire: a benchmark that was 0 allocs/op in the
# baseline must stay 0. Unlike throughput this is deterministic, so
# any regression is flagged even in warn mode.
extract_allocs "$cur" | awk -v basefile="$base" -v level="$level" '
NR == FNR { baseline[$1] = $2; next }
$1 in baseline {
    compared++
    if (baseline[$1] == 0 && $2 > 0) {
        flagged++
        printf "::%s::%s allocates %d times/op but was allocation-free in the %s baseline\n",
            level, $1, $2, basefile
    }
}
END {
    if (compared) printf "%d benchmark(s) checked for allocation regressions\n", compared
    else printf "no allocs/op data in common (baseline predates -benchmem?); skipping allocation check\n"
    exit flagged ? 3 : 0
}
' "$allocstmp" - || echo allocs >> "$failtmp"

# Must-zero tripwire: the flight-recorder write path, the alert
# engine's per-tick eval, the balancer's assign+done and the
# utilization report path have no baseline grace period — any
# allocation in the current run is flagged.
extract_allocs "$cur" | awk -v level="$level" '
$1 ~ /BenchmarkRecordWrite|BenchmarkAlertEval|BenchmarkAssignDone|BenchmarkUtilReportPath/ {
    checked++
    if ($2 > 0) {
        flagged++
        printf "::%s::%s allocates %d times/op; this hot path must stay at 0 allocs/op (docs/recordlog.md, docs/observability.md, docs/performance.md)\n",
            level, $1, $2
    }
}
END {
    if (checked) printf "%d hot-path benchmark(s) checked against the must-zero allocs/op rule\n", checked
    exit flagged ? 3 : 0
}
' || echo must-zero-allocs >> "$failtmp"

if [ "$enforce" = 1 ] && [ -s "$failtmp" ]; then
    echo "bench gate FAILED ($(tr '\n' ' ' < "$failtmp")); see ::error:: lines above" >&2
    echo "a >10% machine-steps/s regression needs either a fix or a refreshed committed baseline;" >&2
    echo "put [bench-skip] in the commit message to bypass a known-noisy run (docs/performance.md)" >&2
    exit 1
fi
exit 0
