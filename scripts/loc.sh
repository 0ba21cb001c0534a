#!/bin/sh
# loc.sh — non-test Go line counts for the directories ROADMAP aim 2
# measures ("the same behaviour and the same numbers from the simplest
# design and the least code"). Subdirectories count with their parent,
# so moving code under internal/proptest/... is net zero. The two
# closing lines count every non-test and every test .go file in the
# tree (not .bench_build/, which holds copies), so a deletion anywhere
# shows. Quote the output for parent and change in CHANGES.md when a PR
# claims a deletion.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in internal/ledger internal/market internal/api internal/proptest \
	internal/semantic internal/vm internal/telemetry cmd; do
	n=$(find "$dir" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-20s %6d\n' "$dir" "$n"
	total=$((total + n))
done
printf '%-20s %6d\n' total "$total"

tree() {
	find . -path ./.bench_build -prune -o -name '*.go' "$@" -print |
		xargs cat | wc -l
}
printf '%-20s %6d\n' "tree non-test" "$(tree ! -name '*_test.go')"
printf '%-20s %6d\n' "tree test" "$(tree -name '*_test.go')"
