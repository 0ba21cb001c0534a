#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): builds the benchmark
# from source into .bench_build/ at the checkout root and runs it there.
# Everything the toolchain and the benchmark write — build cache, module
# cache, GOPATH, the toolchain's own config and telemetry counters, temp
# files, the runs' stores — stays under that directory, so a run touches
# nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# -buildvcs=false: the checkout is not a repository, and one above it is
# none of the benchmark's business.
(cd "$here" && go build -buildvcs=false -o "$out/pds2-bench" .)
cd "$root"
exec "$out/pds2-bench" "$@"
