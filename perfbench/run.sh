#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload chat-prefix --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and tool configuration all live under
# .bench_build in the checkout, so nothing is read or written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
