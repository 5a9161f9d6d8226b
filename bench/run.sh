#!/usr/bin/env bash
# Builds dcsbench and dcsprintd from this checkout's sources, then runs one
# dcsbench invocation against that dcsprintd; every argument goes to
# dcsbench. Run it from anywhere in the checkout:
#
#   bash bench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Everything the run builds, writes or caches stays under .bench_build/ at
# the repository root: the Go build cache, the binaries, runs.jsonl,
# spans.jsonl and the durable loads' state directories.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work="$root/.bench_build/dcsbench"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/go-cache" GOPATH="$work/go-path" GOMODCACHE="$work/go-path/pkg/mod" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd bench && go build -o "$work/bin/dcsbench" ./dcsbench)
go build -o "$work/bin/dcsprintd" ./cmd/dcsprintd
exec "$work/bin/dcsbench" -daemon "$work/bin/dcsprintd" -out "$work" "$@"
