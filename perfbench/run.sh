#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-n1024 --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ at the root of the tree; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C "$root/perfbench" build -o "$out/perfbench" .
if [ -z "${PERFBENCH_SOURCE:-}" ]; then
	PERFBENCH_SOURCE="src-$(cd "$root" && find . -name '*.go' -not -path './.bench_build/*' | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
	export PERFBENCH_SOURCE
fi
exec "$out/perfbench" "$@"
