#!/usr/bin/env bash
# ci.sh — every CI gate's commands, written once. The workflow
# (.github/workflows/ci.yml) calls one stage per step and a local run
# calls the same stage:
#
#   scripts/ci.sh <stage>      # e.g. scripts/ci.sh lockstep
#   scripts/ci.sh              # prints the stage names
#
# docs/performance.md ("CI gates") says what each stage protects. A
# stage exits non-zero on the first failing command. Stages that start
# daemons build into a fresh temporary directory and stop every daemon
# they started on any exit.
# No pipefail: like a workflow step's default shell, a pipeline's
# status is its last command's. The two bench stages set it, so that a
# go test piped into tee still fails them.
set -eu
cd "$(dirname "$0")/.."

# lint: build, vet, gofmt, the reachability census and the fused
# multiply-add tripwire.
stage_lint() {
	go build ./...
	go vet ./...
	local out
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		printf 'files need gofmt:\n%s\n' "$out" >&2
		return 1
	fi
	# Every function is linked into some main package, and every
	# internal/ Config/Options field is set by some non-test file, or
	# listed, with its reason, in scripts/reach/allow.txt; an allowlist
	# line whose function is reachable again, or whose field is set
	# again, or which is gone, fails too.
	go run ./scripts/reach
	# arm64, ppc64le, s390x and riscv64 may fuse x*y + z into one
	# multiply-add that rounds once, changing the bits. Every package
	# rounds each product (float64(x*y)), so no listing may hold a fused
	# instruction. benchmarks/ is left out: its report arithmetic still
	# fuses and is mended with the next change to the benchmark. The
	# listing is replayed from the build cache, so a cached build prints
	# it too.
	local pkgs arch asm
	pkgs="$(go list ./... | grep -v '/benchmarks$')"
	for arch in arm64 ppc64le s390x riscv64; do
		asm="$(GOARCH=$arch go build -gcflags=-S $pkgs 2>&1)"
		if ! grep -q 'TEXT' <<<"$asm"; then
			echo "no assembly listing from the $arch build" >&2
			return 1
		fi
		if grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[SD]?\b' <<<"$asm"; then
			echo "fused multiply-add on $arch" >&2
			return 1
		fi
	done
}

# unit: the whole suite, then one iteration of every room-kernel size
# sweep and room-build tier (benchmarks do not run under go test), so a
# tier that no longer builds or steps fails.
stage_unit() {
	go test ./...
	go test -run '^$' -bench BenchmarkRoomStep -benchtime 1x -short ./internal/solver
	go test -run '^$' -bench BenchmarkRoomBuild -benchtime 1x -short ./internal/solver
}

# lockstep: the goldens are a property of the protocol, not of the
# scheduler. A clock-derived stamp taken after the send or counter that
# lets the harness advance passes on one core and fails on two, so the
# lockstep suites run five times at three core counts, and so do the
# Sim goldens: online.Loop's in-process room runs them.
stage_lockstep() {
	local procs
	for procs in 1 2 8; do
		echo "GOMAXPROCS=$procs"
		GOMAXPROCS=$procs go test -count=5 ./internal/online ./internal/solverd ./internal/udprpc
		GOMAXPROCS=$procs go test -count=5 -run '^TestSim' ./internal/experiments
	done
}

# full-size: the benchmark workloads at full size, where a recorder
# overrun, a split digest, a batched digest that leaves the unbatched
# reference, or a Workers:1/Workers:nproc room-kernel mismatch shows
# (TestQuickWorkloads' -quick sizes never reach them). Each run exits 1
# on any failed operation.
stage_full-size() {
	local w procs
	for w in fig11-stack room64-batch room-kernel; do
		for procs in 1 2; do
			echo "$w GOMAXPROCS=$procs"
			GOMAXPROCS=$procs go run ./benchmarks -workload "$w" -seconds 3
		done
	done
}

# race: the whole module under the race detector. It carries every
# concurrency stress test (barrier and pool, sharded solverds, lockstep
# wake-ups, the surrogate, the flight-recorder ring, the tracer and the
# dash), and the lock-free balancer's only check that one goroutine
# drives it.
stage_race() {
	go test -race ./...
}

# Plumbing for the smoke and bench stages: binaries go to $tmp, and
# every background daemon is recorded in $pids, stopped after its check
# and, whatever happens, on exit.
tmp=
pids=()
stop() {
	if [ "${#pids[@]}" -gt 0 ]; then
		kill "${pids[@]}" 2>/dev/null || true
		wait "${pids[@]}" 2>/dev/null || true
	fi
	pids=()
}
cleanup() {
	stop
	[ -z "$tmp" ] || rm -rf "$tmp"
	git worktree prune # the bench stage's parent checkout lived in $tmp
}
# up <url> waits up to 10 s for a daemon's /healthz.
up() {
	local i
	for i in $(seq 1 50); do
		curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
		sleep 0.2
	done
	echo "$1 never came up" >&2
	return 1
}

# smoke: the binaries end to end, black box.
stage_smoke() {
	trap cleanup EXIT
	trap 'exit 1' INT TERM
	tmp="$(mktemp -d)"
	local c pid fired i state healthy
	for c in freon mercury-replay mercury-solver fiddle monitord mercury-dash; do
		go build -o "$tmp/$c" "./cmd/$c"
	done

	# Record/replay: a freon -online capture, and a mercury-solver
	# capture stopped by SIGINT with no -ctl beside it, must decode and
	# re-drive a fresh solver bit-identical; the solver's must hold
	# temperature rows (an empty capture once "replayed" 0/0 rows).
	"$tmp/freon" -online -duration 120s -record "$tmp/rec"
	"$tmp/mercury-replay" -log "$tmp/rec"
	"$tmp/mercury-solver" -machines 4 -listen 127.0.0.1:0 -warp 200 -record "$tmp/rec-solver" &
	pid=$!
	pids+=("$pid")
	sleep 2
	kill -INT "$pid"
	wait "$pid"
	"$tmp/mercury-replay" -log "$tmp/rec-solver" | tee "$tmp/replay-solver.txt"
	grep -Eq 'compared: [1-9][0-9]*/[1-9][0-9]* temp rows' "$tmp/replay-solver.txt"
	stop

	# Control plane: /healthz, the step counter on /metrics, the
	# model's machines on /state (docs/observability.md).
	"$tmp/mercury-solver" -machines 4 -listen 127.0.0.1:0 -ctl 127.0.0.1:9367 &
	pids+=($!)
	up http://127.0.0.1:9367
	curl -fsS http://127.0.0.1:9367/metrics | grep mercury_solver_steps_total
	curl -fsS http://127.0.0.1:9367/state | grep -q machine1
	stop

	# Alerting: -alerts default at warp speed serves the rule set, and
	# a fiddled hot inlet takes at least one thermal alert to firing,
	# with the transition counters on /metrics.
	"$tmp/mercury-solver" -machines 4 -listen 127.0.0.1:8369 -ctl 127.0.0.1:9379 \
		-warp 100 -alerts default &
	pids+=($!)
	up http://127.0.0.1:9379
	curl -fsS 'http://127.0.0.1:9379/alerts?format=json' | grep -q '"rules"'
	"$tmp/fiddle" -solver 127.0.0.1:8369 machine1 temperature inlet 45
	fired=0
	for i in $(seq 1 120); do
		if curl -fsS 'http://127.0.0.1:9379/alerts?format=json' | grep -Eq '"firing": *[1-9]'; then
			fired=1
			break
		fi
		sleep 0.5
	done
	if [ "$fired" != 1 ]; then
		echo "no alert fired after the hot-spot fiddle:" >&2
		curl -fsS 'http://127.0.0.1:9379/alerts?format=json' >&2 || true
		return 1
	fi
	curl -fsS http://127.0.0.1:9379/metrics | grep mercury_alert_transitions_total
	stop

	# Aggregator: mercury-dash over a traced solver and one monitord
	# reports both healthy and exports the solver's step spans as a
	# Chrome trace.
	"$tmp/mercury-solver" -machines 4 -listen 127.0.0.1:8367 -ctl 127.0.0.1:9377 -trace-spans &
	pids+=($!)
	"$tmp/monitord" -machine machine1 -solver 127.0.0.1:8367 -synthetic-cpu 0.7 -ctl 127.0.0.1:9378 &
	pids+=($!)
	"$tmp/mercury-dash" -targets solverd=127.0.0.1:9377,monitord1=127.0.0.1:9378 \
		-listen 127.0.0.1:9400 -poll 500ms &
	pids+=($!)
	up http://127.0.0.1:9400
	sleep 4 # a few 1 s steps, polled by the dash
	state="$(curl -fsS http://127.0.0.1:9400/state)"
	grep -q '"solverd"' <<<"$state"
	grep -q '"monitord1"' <<<"$state"
	healthy="$(grep -c '"healthy": true' <<<"$state" || true)"
	if [ "$healthy" != 2 ]; then
		printf 'expected 2 healthy targets, got %s:\n%s\n' "$healthy" "$state" >&2
		return 1
	fi
	curl -fsS -o "$tmp/trace.json" http://127.0.0.1:9400/trace.json
	grep -q solver-step "$tmp/trace.json"
	python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["traceEvents"], "empty traceEvents"' "$tmp/trace.json"
}

# fuzz: 30 s per target. Parsers and decoders (dotlang, the wire
# formats, the flight-recorder reader, the utilization-trace reader)
# must never panic, and each differential target must agree with its
# frozen reference in the package's reference_test.go. The generated
# corpus lives in the build cache's fuzz directory, which the workflow
# carries between runs.
# The minimizer gets 200 execs per new input, not its default 60 s,
# which on two cores spent most of a target's 30 s:
# FuzzBalancerDifferential ran 7 181 execs in 30 s with the default and
# 167 433 with 200x.
stage_fuzz() {
	local spec pkg t
	for spec in \
		dotlang:FuzzParse \
		wire:FuzzUnmarshalUtilUpdate wire:FuzzUnmarshalSensorRead wire:FuzzUnmarshalFiddleOp \
		wire:FuzzUnmarshalListReply wire:FuzzUnmarshalBoundaryExchange wire:FuzzUnmarshalUtilBatch \
		wire:FuzzUnmarshalSensorReadMany wire:FuzzUnmarshalSensorReplyMany wire:FuzzUtilReportDifferential \
		recordlog:FuzzReadRecord recordlog:FuzzCodecDifferential \
		model:FuzzValidateDifferential lvs:FuzzBalancerDifferential workload:FuzzWebGen \
		trace:FuzzReadTrace; do
		pkg=${spec%%:*} t=${spec#*:}
		go test "./internal/$pkg" -run='^$' -fuzz="^$t\$" -fuzztime=30s -fuzzminimizetime=200x
	done
}

# pair: the change against its parent on the whole-stack benchmark
# (benchmarks/README.md), same runner, same minutes. The parent is
# HEAD^1: the base of a pull request's merge ref, the previous commit
# of a push. Both commits' ./benchmarks are built, every workload that
# both BENCHMARK.json files list runs in three parent/change pairs of
# -seconds 3, the side that runs first alternating, and -compare prints
# its verdicts into bench-compare.txt (uploaded by the workflow). A
# regressed verdict, a differing sim_digest or a failed or incorrect
# run fails. An unresolved verdict only prints: -compare exits 1 on it,
# and runner noise alone spreads some metrics past their bound
# (room64-batch setup_s spreads 27 % against 25 % on a quiet 2-vCPU
# host). -compare also calls a noisy metric unresolved when every run
# of the change is worse (ROADMAP item 9(e)).
pair() {
	trap cleanup EXIT
	trap 'exit 1' INT TERM
	tmp="$(mktemp -d)"
	if ! git rev-parse -q --verify 'HEAD^1' >/dev/null; then
		echo "no parent commit to pair with (a shallow clone needs fetch-depth: 0)" >&2
		return 1
	fi
	git worktree add -q --detach "$tmp/base" 'HEAD^1'
	(cd "$tmp/base" && go build -o "$tmp/bench-base" ./benchmarks)
	go build -o "$tmp/bench-head" ./benchmarks
	local names='import json, sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))'
	local workloads round sides w side
	workloads="$(grep -Fx -f <(python3 -c "$names" "$tmp/base/BENCHMARK.json") <(python3 -c "$names" BENCHMARK.json))"
	for round in 1 2 3; do
		sides="base head"
		[ "$round" != 2 ] || sides="head base"
		for w in $workloads; do
			for side in $sides; do
				echo "pair $round: $w, $side"
				# Captures go under the working directory, so run from $tmp.
				if ! (cd "$tmp" && "$tmp/bench-$side" -workload "$w" -seconds 3 -out "$tmp/$side.jsonl" >"$tmp/run.txt" 2>&1); then
					cat "$tmp/run.txt" >&2
					echo "::error::benchmark run failed: $w on the $side commit" >&2
					return 1
				fi
			done
		done
	done
	# -compare exits 1 on a regressed or unresolved verdict, a digest
	# split or a failed run (sorted out below), and 2 if it cannot read
	# the runs.
	"$tmp/bench-head" -compare "$tmp/base.jsonl" "$tmp/head.jsonl" >bench-compare.txt || [ $? = 1 ]
	cat bench-compare.txt
	if grep -E '^(sim_digest differs|run failed)|[[:space:]]regressed$' bench-compare.txt >&2; then
		echo "::error::the change regressed against its parent or simulates differently (lines above)" >&2
		return 1
	fi
}

# bench: one iteration of every benchmark (bench-smoke.txt, uploaded by
# the workflow), the parent/change pairing above, then two same-run
# asserts. Zero-allocation paths are held by AllocsPerRun tests in
# their packages (the unit stage), not here.
#  - Scaling: machines=10000 at workers=4 must beat workers=1 (best of
#    3); skipped on a single-CPU host, where the pool parks.
#  - What-if: the surrogate must stay >=100x the analytic SteadyState
#    at machines=1000 (docs/surrogate.md; best of 3). Each path is
#    timed for 2 s: at 20 iterations the surrogate's 2.6 ms was too
#    short for a stable ratio.
stage_bench() {
	set -o pipefail
	go test -bench=. -benchtime=1x -short -run='^$' ./... | tee bench-smoke.txt
	pair
	if [ "$(nproc)" -lt 2 ]; then
		echo "single-CPU host; scaling assert skipped"
	else
		go test -run='^$' -bench='BenchmarkScaleoutStep/^machines=10000$/^workers=[14]$' \
			-benchtime=100x -count=3 ./internal/solver | tee scaling.txt
		awk '
			/machines=10000\/workers=1[- ]/ { if ($5 > w1) w1 = $5 }
			/machines=10000\/workers=4[- ]/ { if ($5 > w4) w4 = $5 }
			END {
				printf "best workers=1: %.0f machine-steps/s\nbest workers=4: %.0f machine-steps/s\n", w1, w4
				if (!(w1 > 0) || !(w4 > 0)) { print "::error::scaling assert parsed no numbers"; exit 1 }
				if (w4 <= w1) {
					printf "::error::parallel stepping is not faster than serial (workers=4 %.0f <= workers=1 %.0f machine-steps/s)\n", w4, w1
					exit 1
				}
				printf "speedup: %.2fx\n", w4 / w1
			}' scaling.txt
	fi
	go test -run='^$' -bench='BenchmarkWhatIf/machines=1000/path=(surrogate|steadystate)$' \
		-benchtime=2s -count=3 ./internal/surrogate | tee whatif.txt
	awk '
		/path=surrogate[- ]/ { if (!s || $3 < s) s = $3 }
		/path=steadystate[- ]/ { if (!a || $3 < a) a = $3 }
		END {
			if (!(s > 0) || !(a > 0)) { print "::error::what-if assert parsed no numbers"; exit 1 }
			printf "best surrogate: %.0f ns/op\nbest steadystate: %.0f ns/op\nspeedup: %.0fx\n", s, a, a / s
			if (a / s < 100) {
				printf "::error::surrogate what-if is only %.0fx the analytic SteadyState (docs/surrogate.md promises >=100x)\n", a / s
				exit 1
			}
		}' whatif.txt
}

# bench-full: the weekly matrix. A full-length race pass over the pool
# stress tests, then every benchmark, machines=100000 included, into
# bench-full.txt (uploaded by the workflow): the root package's paper
# regenerations and ablations once each (deterministic, 1-2 s an op),
# every package's micro-benchmarks 50x, three times, one package at a
# time so they do not share the CPUs. pipefail makes a go test that
# fails or times out fail the stage through tee. On a 2-vCPU host the
# root package took 6 s, internal/solver (the slowest) 170 s and the
# stage 287 s; each timeout allows at least five times its package.
stage_bench-full() {
	set -o pipefail
	go test -race -count=4 -run 'TestParallelDeterminism|TestConcurrentHammer' ./internal/solver
	{
		go test -run='^$' -bench=. -benchtime=1x -benchmem -timeout=5m .
		go test -p 1 -run='^$' -bench=. -benchtime=50x -count=3 -benchmem -timeout=15m \
			$(go list ./... | grep -vx "$(go list .)")
	} 2>&1 | tee bench-full.txt
}

stages() { declare -F | sed -n 's/^declare -f stage_//p'; }

# check: the workflow calls every stage, and only stages that exist.
stage_check() {
	local called defined missing unused
	called="$(sed -n 's/^ *run: scripts\/ci\.sh \([a-z-]*\)$/\1/p' .github/workflows/ci.yml | sort -u)"
	defined="$(stages | sort -u)"
	missing="$(comm -23 <(echo "$called") <(echo "$defined"))"
	unused="$(comm -13 <(echo "$called") <(echo "$defined"))"
	[ -z "$missing" ] || echo "ci.yml calls undefined stage(s): $missing" >&2
	[ -z "$unused" ] || echo "stage(s) ci.yml never calls: $unused" >&2
	[ -z "$missing$unused" ]
}

if [ "$#" -ne 1 ] || ! declare -F "stage_$1" >/dev/null; then
	echo "usage: scripts/ci.sh <stage>; stages:" $(stages) >&2
	exit 2
fi
"stage_$1"
