#!/bin/sh
# bench.sh — run the full benchmark suite once and record the results
# as BENCH_<date>.json in the repo root, seeding the local performance
# trajectory (docs/performance.md explains how to read and refresh the
# files). Pass extra `go test` arguments through; every benchmark runs
# unless they include a -bench of their own, e.g.:
#
#   scripts/bench.sh                      # everything, one iteration
#   scripts/bench.sh -benchtime=50x       # everything, 50 iterations
#   scripts/bench.sh -bench=ScaleoutStep  # just the scale-out family
#   scripts/bench.sh -bench=OnlineWarp    # online-mode warp throughput
#
# With `-count=N` each benchmark runs N times and the recorded entry is
# the repetition with the lowest ns/op — min-of-N is the standard way
# to cut scheduler noise on shared runners, and it is how the committed
# baselines used by scripts/bench_diff.sh are produced:
#
#   scripts/bench.sh -bench=ScaleoutStep -benchtime=100x -count=5
#
# BenchmarkOnlineWarp reports emu-s/s — emulated seconds per wall
# second for the loopback-UDP daemon stack (docs/virtual-time.md) —
# so BENCH_*.json tracks online-mode throughput alongside the solver
# numbers.
#
# BenchmarkUtilBatch (internal/wire) reports bytes/interval and
# datagrams/interval for a 16-machine rack sent as one batched
# utilization datagram versus sixteen 128-byte singles, so BENCH_*.json
# also tracks the scale-out wire costs (docs/protocol.md).
#
# BenchmarkWhatIf compares the three steady-state what-if engines on a
# 1000-machine room (surrogate / analytic SteadyState / kernel stepped
# to convergence; docs/surrogate.md), so BENCH_*.json records the fast
# path's speedup — the surrogate entry must stay >=100x faster than
# both exact paths — and the record sub-benchmark's allocs/op pins the
# trajectory-recording hot path at zero.
#
# BenchmarkAssignDone (internal/lvs) and BenchmarkTickSecond
# (internal/webcluster) are the request path's layer benchmarks: one
# assign+done pair at 4/64/1024 servers, by name and by index, plus a
# 64-server pick whose least-loaded server blocks the class (the
# fallback scan), and one emulated second of a 4-, 64- and 1024-machine
# cluster at the paper's 70 % peak (docs/performance.md, "Request path"
# and "Least-connections pick"). AssignDone must stay at 0 allocs/op;
# TickSecond allocates only the map it returns.
#
# BenchmarkUtilReportPath is the utilization report path's layer
# benchmark: one interval's reports for a rack of 16 and of 96 machines
# through sample / encode / decode / apply, and loopback — a batch
# monitord's SampleOnce over a real socket into a solverd, timed until
# the last report is applied. It reports reports/s, and every
# sub-benchmark must stay at 0 allocs/op (docs/performance.md,
# "Utilization report path").
#
# BenchmarkGenerateWeb (internal/workload) draws the whole web trace of
# the fig11-stack and room64-batch workloads, the work online.Run moves
# onto its producer goroutine (docs/performance.md, "Run-ahead
# workload").
#
# Benchmarks run with -benchmem, so B/op and allocs/op land in each
# entry's metrics; scripts/bench_diff.sh uses allocs/op to flag hot
# paths that were allocation-free and have started allocating.
set -eu

cd "$(dirname "$0")/.."

date="$(date +%Y%m%d)"
out="BENCH_${date}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

bench=-bench=.
for arg in "$@"; do
    case "$arg" in
    -bench=* | -test.bench=* | -bench | -test.bench) bench= ;;
    esac
done
go test $bench -benchtime=1x -benchmem -run='^$' "$@" ./... | tee "$raw"

# Convert `go test -bench` lines into a JSON document:
# {"date": ..., "go": ..., "benchmarks": [{"name":..., "iterations":...,
#  "ns_per_op":..., "metrics": {"machine-steps/s": ...}}, ...]}
awk -v date="$date" -v goversion="$(go version)" '
/^Benchmark/ {
    name = $1
    ns = ""
    for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/op") ns = $i + 0
    }
    if (!(name in best)) {
        order[++n] = name
        best[name] = ns
        line[name] = $0
    } else if (ns != "" && ns < best[name]) {
        best[name] = ns
        line[name] = $0
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, goversion
    for (b = 1; b <= n; b++) {
        $0 = line[order[b]]
        if (b > 1) printf ","
        printf "\n    {\"name\": \"%s\", \"iterations\": %s", $1, $2
        m = 0
        for (i = 3; i < NF; i += 2) {
            unit = $(i + 1)
            if (unit == "ns/op") {
                printf ", \"ns_per_op\": %s", $i
            } else {
                if (!m++) printf ", \"metrics\": {"
                else printf ", "
                gsub(/"/, "", unit)
                printf "\"%s\": %s", unit, $i
            }
        }
        if (m) printf "}"
        printf "}"
    }
    printf "\n  ]\n}\n"
}
' "$raw" > "$out"

echo "wrote $out"
