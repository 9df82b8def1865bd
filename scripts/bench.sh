#!/usr/bin/env bash
# Runs the hot-path benchmark set COUNT times and records, per benchmark and
# per reported metric (ns/op, B/op, allocs/op, and switches/run or
# migrations/run where reported), the median and the min/max over the
# repetitions, together with a fingerprint of the host: CPU model, cores,
# GOMAXPROCS and `go version`. The committed pre-optimization baseline
# (scripts/bench_baseline.json) and the PR 4 and PR 5 snapshots
# (scripts/bench_pr4.json, scripts/bench_pr5.json) are embedded as the
# "before" sides; they were measured on other hosts, so compare against them
# only through a fresh run of the older code on the same machine. Knobs:
#
#   OUT=bench.json scripts/bench.sh           # output path (default: a file in $TMPDIR)
#   BENCHTIME=2s COUNT=10 scripts/bench.sh    # longer, more repetitions
#   CPUPROFILE=cpu.out scripts/bench.sh       # profile the benchmark runs
#   MEMPROFILE=mem.out scripts/bench.sh       # allocation profile
#
# Profiles come from `go test -cpuprofile/-memprofile`; inspect them with
# `go tool pprof <profile>`. With profiling on, each package's run overwrites
# the profile file, so restrict the set (or use per-package names) when
# profiling a specific benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-6}"
OUT="${OUT:-${TMPDIR:-/tmp}/rtossim-bench.json}"
CPUPROFILE="${CPUPROFILE:-}"
MEMPROFILE="${MEMPROFILE:-}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

bench() { # bench <pattern> <package>
	local extra=()
	[ -n "$CPUPROFILE" ] && extra+=(-cpuprofile "$CPUPROFILE")
	[ -n "$MEMPROFILE" ] && extra+=(-memprofile "$MEMPROFILE")
	go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem "${extra[@]+"${extra[@]}"}" "$2"
}

{
	bench 'BenchmarkKernelProcessSwitch$|BenchmarkRTOSContextSwitch$|BenchmarkContinuationSwitch$|BenchmarkMPEG2SoC$|BenchmarkEngineProcedural$|BenchmarkEngineThreaded$|BenchmarkSMPGlobal' .
	bench 'BenchmarkManyTasks$|BenchmarkManyTaskBodies$|BenchmarkWaitAnyFanout$' .
	bench 'BenchmarkTimedWait$|BenchmarkEventNotify$|BenchmarkDeltaCycle$|BenchmarkWaitTimeoutNoFire$' ./internal/sim/
	bench 'BenchmarkTimedQueueOps$|BenchmarkTimedQueueCancel$' ./internal/sim/
	bench 'BenchmarkSweep$' ./internal/batch/
	bench 'BenchmarkExplore$|BenchmarkTraceCodec$' ./internal/explore/
	bench 'BenchmarkParallelSoC' .
	bench 'BenchmarkWritePerfetto$' ./internal/trace/
	bench 'BenchmarkRegistryWriteJSON$' ./internal/metrics/
} | tee "$RAW"

json_string() { # json_string <text>: the text as a JSON string literal
	printf '"%s"' "$(printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g')"
}

{
	CPU_MODEL="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
	[ -n "$CPU_MODEL" ] || CPU_MODEL="$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)"
	CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
	GOMAXPROCS_USED="${GOMAXPROCS:-$CORES}"
	printf '{\n  "host": {"cpu_model": %s, "cores": %s, "gomaxprocs": %s, "go": %s},\n' \
		"$(json_string "$CPU_MODEL")" "$CORES" "$GOMAXPROCS_USED" "$(json_string "$(go version)")"
	printf '  "benchtime": "%s",\n  "count": %s,\n  "baseline": ' "$BENCHTIME" "$COUNT"
	cat scripts/bench_baseline.json
	printf ',\n  "pr4": '
	cat scripts/bench_pr4.json
	printf ',\n  "pr5": '
	cat scripts/bench_pr5.json
	printf ',\n  "results": '
	# Every repetition of a benchmark contributes one sample per metric; the
	# summary is the median (mean of the middle two for an even count) and
	# the min/max.
	awk '
		function summary(key,    n, i, j, t, v, med) {
			n = cnt[key]
			for (i = 1; i <= n; i++) v[i] = val[key, i]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
			med = (n % 2) ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
			return sprintf("{\"median\": %s, \"min\": %s, \"max\": %s}", med, v[1], v[n])
		}
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in runs)) order[++nb] = name
			runs[name]++
			for (i = 3; i < NF; i += 2) {
				unit = $(i+1)
				if (unit == "ns/op") m = "ns_op"
				else if (unit == "B/op") m = "bytes_op"
				else if (unit == "allocs/op") m = "allocs_op"
				else if (unit == "switches/run") m = "switches_run"
				else if (unit == "migrations/run") m = "migrations_run"
				else if (unit == "runs/op") m = "runs_op"
				else continue
				key = name SUBSEP m
				if (!(key in cnt)) metrics[name] = metrics[name] " " m
				val[key, ++cnt[key]] = $i
			}
		}
		END {
			printf "{\n"
			for (b = 1; b <= nb; b++) {
				name = order[b]
				line = "\"" name "\": {\"n\": " runs[name]
				nm = split(metrics[name], ms, " ")
				for (k = 1; k <= nm; k++) line = line ", \"" ms[k] "\": " summary(name SUBSEP ms[k])
				printf "    %s}%s\n", line, (b < nb ? "," : "")
			}
			printf "  }"
		}
	' "$RAW"
	printf '\n}\n'
} >"$OUT"

echo "wrote $OUT"
