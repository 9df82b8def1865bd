#!/usr/bin/env bash
# Compares the reports and artifacts of two rtossim binaries over every
# example scenario and both processor engines:
#
#   scripts/compare_reports.sh OLD_RTOSSIM NEW_RTOSSIM [scenario.json ...]
#
# Each binary runs every scenario twice per engine: once plain (the default
# report, which folds statistics without storing the trace), and once
# writing every artifact (-perfetto, -metrics, -prom, -json, -csv, -vcd,
# -svg), which stores it; the artifact directory is cut from the "wrote"
# lines. The kernel-effort counter the report header shows (kernel
# activations) is masked in the report and in the metrics artifacts,
# since it measures how the simulator ran, not what it simulated. Every
# other byte of both stdouts and of every artifact file, and both exit
# codes, must match. Prints one line per scenario and engine, then a
# summary, and exits 1 when any run differs.
set -uo pipefail

old=$1 new=$2
shift 2
files=("$@")
[ ${#files[@]} -gt 0 ] || files=(examples/scenarios/*.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mask() { sed -E 's/\([0-9]+ kernel activations, /(N kernel activations, /'; }
artifacts=(perfetto metrics prom json csv vcd svg)

# run BIN ENGINE SCENARIO DIR: the masked reports, exit codes and artifacts
# of both runs, one file each in DIR.
run() {
	local bin=$1 engine=$2 f=$3 dir=$4 a
	mkdir -p "$dir"
	"$bin" -engine "$engine" "$f" 2>/dev/null | mask >"$dir/report"
	echo "${PIPESTATUS[0]}" >"$dir/exit"
	local flags=()
	for a in "${artifacts[@]}"; do flags+=("-$a" "$dir/$a"); done
	"$bin" -engine "$engine" "${flags[@]}" "$f" 2>/dev/null | mask | sed "s|$dir/||" >"$dir/report+artifacts"
	echo "${PIPESTATUS[0]}" >"$dir/exit+artifacts"
	[ -f "$dir/metrics" ] && awk '/"name": "sim_activations_total"/ { m = 1 }
		m && /"value":/ { sub(/-?[0-9]+/, "N"); m = 0 } { print }' "$dir/metrics" >"$dir/m" && mv "$dir/m" "$dir/metrics"
	[ -f "$dir/prom" ] && sed -Ei 's/^(sim_activations_total(\{[^}]*\})?) [0-9]+$/\1 N/' "$dir/prom"
	return 0
}

status=0 runs=0 differ=0
for f in "${files[@]}"; do
	case "$f" in *sweep*) continue ;; esac
	for engine in procedural threaded; do
		rm -rf "$tmp/old" "$tmp/new"
		run "$old" "$engine" "$f" "$tmp/old"
		run "$new" "$engine" "$f" "$tmp/new"
		runs=$((runs + 1))
		diffs=()
		for out in exit report exit+artifacts report+artifacts "${artifacts[@]}"; do
			if [ -f "$tmp/old/$out" ] || [ -f "$tmp/new/$out" ]; then
				cmp -s "$tmp/old/$out" "$tmp/new/$out" || diffs+=("$out")
			fi
		done
		if [ ${#diffs[@]} -gt 0 ]; then
			echo "DIFF  $f $engine: ${diffs[*]} (exit $(cat "$tmp/old/exit") -> $(cat "$tmp/new/exit"))"
			for out in "${diffs[@]}"; do
				diff "$tmp/old/$out" "$tmp/new/$out" 2>&1 | head -10
			done
			differ=$((differ + 1))
			status=1
		else
			echo "same  $f $engine (exit $(cat "$tmp/new/exit"), ${#artifacts[@]} artifacts)"
		fi
	done
done
echo "summary: $runs runs (report, exit code and ${#artifacts[@]} artifacts each), $differ differ"
exit $status
