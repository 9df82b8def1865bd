#!/usr/bin/env bash
# Compares the reports of two rtossim binaries over every example scenario
# and both processor engines:
#
#   scripts/compare_reports.sh OLD_RTOSSIM NEW_RTOSSIM [scenario.json ...]
#
# The kernel-effort counters in the report header (kernel activations) are
# masked, since they measure how the simulator ran, not what it simulated.
# Every other byte of stdout, and the exit code, must match. Prints one line
# per run and exits 1 when any run differs.
set -uo pipefail

old=$1 new=$2
shift 2
files=("$@")
[ ${#files[@]} -gt 0 ] || files=(examples/scenarios/*.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mask() { sed -E 's/\([0-9]+ kernel activations, /(N kernel activations, /'; }

status=0
for f in "${files[@]}"; do
	case "$f" in *sweep*) continue ;; esac
	for engine in procedural threaded; do
		"$old" -engine "$engine" "$f" 2>/dev/null | mask >"$tmp/old"
		oldExit=${PIPESTATUS[0]}
		"$new" -engine "$engine" "$f" 2>/dev/null | mask >"$tmp/new"
		newExit=${PIPESTATUS[0]}
		if [ "$oldExit" != "$newExit" ]; then
			echo "DIFF  $f $engine: exit $oldExit -> $newExit"
			status=1
		elif ! cmp -s "$tmp/old" "$tmp/new"; then
			echo "DIFF  $f $engine: report differs (exit $newExit)"
			diff "$tmp/old" "$tmp/new" | head -20
			status=1
		else
			echo "same  $f $engine (exit $newExit)"
		fi
	done
done
exit $status
