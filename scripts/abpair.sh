#!/usr/bin/env bash
# abpair.sh — the pairing rule as one command: alternate benchmark runs of
# a parent ref and of this working tree, then let the harness's own
# `compare` judge them.
#
#	scripts/abpair.sh <parent-ref> <pairs> [benchmark flags, default: -workload all]
#
# The parent is a `git archive` of <parent-ref> unpacked beside the runs
# (the harness builds into its own checkout and must not see a
# repository), the change is the working tree as it stands. Each pair
# runs both sides with the same flags, the side that goes first
# alternating, every run through `bash benchmark/run.sh … -out`. Nothing
# else may be running on the box. Summaries stay in
# .bench_build/abpair/{parent,change}-<i>.json for `benchmark spread` or
# a later `compare`; the table goes to stdout.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <pairs> [benchmark flags, default: -workload all]" >&2
	exit 2
fi
ref="$1"
pairs="$2"
shift 2
if [ $# -eq 0 ]; then
	set -- -workload all
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/abpair"
rm -rf "$work"
mkdir -p "$work/parent"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"

run() { # run <side> <checkout> <pair>
	echo "abpair: pair $3/$pairs: $1" >&2
	(cd "$2" && bash benchmark/run.sh "${@:4}" -out "$work/$1-$3.json") >"$work/$1-$3.log" 2>&1 || {
		echo "abpair: $1 run $3 failed; see $work/$1-$3.log" >&2
		exit 1
	}
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$work/parent" "$i" "$@"
		run change "$root" "$i" "$@"
	else
		run change "$root" "$i" "$@"
		run parent "$work/parent" "$i" "$@"
	fi
done

# Both sides wrote the same schema; the change's build of the harness
# (identical source) does the statistics.
"$root/.bench_build/pds2-bench" compare "$work"/parent-*.json -- "$work"/change-*.json
