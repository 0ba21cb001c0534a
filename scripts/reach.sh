#!/bin/sh
# reach.sh — ratchet on code that no shipped binary links. Builds the
# five cmd/ mains, the four examples and the benchmark harness (its own
# module) with inlining off, collects their pds2/ text symbols with
# `go tool nm`, and lets scripts/reach list every non-test internal/
# function whose symbol is absent. Fails when the unreached line count
# rises above the floor; lower the floor when code is deleted, never
# raise it to make CI pass. Code comes back only with a caller.
set -eu

cd "$(dirname "$0")/.."

floor=306

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

for main in cmd/pds2 cmd/pds2-audit cmd/pds2-experiments cmd/pds2-load \
	cmd/pds2-node examples/iotfleet examples/medicalstudy examples/pricing \
	examples/quickstart; do
	go build -buildvcs=false -gcflags=all=-l -o "$tmp/bin/${main##*/}" "./$main"
done
(cd benchmark && GOTOOLCHAIN=local go build -buildvcs=false -gcflags=all=-l \
	-o "$tmp/bin/benchmark" .)

for bin in "$tmp"/bin/*; do
	go tool nm "$bin"
done >"$tmp/symbols"

go run ./scripts/reach <"$tmp/symbols" >"$tmp/report"
cat "$tmp/report"
total=$(sed -n 's/^reach: [0-9]* functions, \([0-9]*\) lines.*/\1/p' "$tmp/report")
if [ -z "$total" ]; then
	echo "reach: no total in the report" >&2
	exit 1
fi
if [ "$total" -gt "$floor" ]; then
	echo "reach: $total unreached lines is above the floor of $floor" >&2
	exit 1
fi
echo "reach: $total unreached lines (floor $floor)"
