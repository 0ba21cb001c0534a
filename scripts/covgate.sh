#!/bin/sh
# covgate.sh — coverage ratchet for the packages the property harness
# leans on. Fails if statement coverage of the ledger, contract runtime
# or token contracts drops below the post-harness baseline; raise a
# floor when coverage improves, never lower one to make CI pass.
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"

# Floors sit one point under the measured baseline (ledger 96.7,
# contract 84.2, token 76.6, semantic 84.3, vm 84.8) to absorb
# formatting-level churn while still catching any real regression.
# The ledger floor moved 86.7 -> 92.7 when the parallel executor was
# deleted: the package measured 89.6 with it and 93.7 without, because
# the removed scheduler carried most of the uncovered abort/panic paths;
# 92.7 -> 93.5 with the bucketed state root (94.5 measured);
# 93.5 -> 93.7 when the chain took over block packing (94.7 measured);
# 93.7 -> 94.7 with the streamed import and its tests (95.7 measured);
# and 94.7 -> 95.7 with the pool's vouch and the cached bucket levels
# (96.7 measured). The contract and token floors moved 83.2 -> 88.0 and
# 75.6 -> 89.3 when failed Context operations began to halt the frame
# (89.0 and 90.3 measured): the deleted forwarding branches were the
# uncovered ones. With straight-line decoding they moved again, contract
# 88.0 -> 91.1 and token 89.3 -> 95.8 (92.1 and 96.8 measured), and vm
# 83.8 -> 84.1 (85.1 measured). The semantic floor moved 83.3 -> 92.6
# when engine.go's shared code and the program parser got their own
# tests (93.6 measured; 64.6 since the reference interpreter and its
# tests moved to internal/proptest/refinterp).
check() {
	pkg="$1"
	floor="$2"
	line=$("$GO" test -cover "./internal/$pkg/" | tail -n 1)
	case "$line" in
	ok*coverage:*) ;;
	*)
		echo "covgate: $pkg tests failed: $line" >&2
		exit 1
		;;
	esac
	pct=$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "covgate: could not parse coverage from: $line" >&2
		exit 1
	fi
	# Integer compare on tenths of a percent keeps this POSIX-sh only.
	got=$(printf '%s' "$pct" | awk '{printf "%d", $1 * 10}')
	want=$(printf '%s' "$floor" | awk '{printf "%d", $1 * 10}')
	if [ "$got" -lt "$want" ]; then
		echo "covgate: internal/$pkg coverage $pct% is below the $floor% floor" >&2
		exit 1
	fi
	echo "covgate: internal/$pkg $pct% (floor $floor%)"
}

check ledger 95.7
check contract 91.1
check token 95.8
check semantic 92.6
check vm 84.1
