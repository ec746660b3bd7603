#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload fig3-quick --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# the service workload's run store and the traced run's span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "perfbench: run from the root of a wormsim checkout (no go.mod or internal/core here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/perfbench/gocache" "$out/perfbench/tmp" "$out/perfbench/home"

# Keep the toolchain's caches, temp files and config inside the checkout,
# and never let it reach for a network or another toolchain.
export GOCACHE="$out/perfbench/gocache"
export GOTMPDIR="$out/perfbench/tmp"
export GOPATH="$out/perfbench/gopath"
export XDG_CONFIG_HOME="$out/perfbench/home"
export HOME="$out/perfbench/home"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

bin="$out/perfbench/perfbench"
(cd "$root/_perfbench" && go build -o "$bin" .)
exec "$bin" -out "$out/perfbench" "$@"
