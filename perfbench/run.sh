#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload instances --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# Everything the build writes (the Go build cache, the binary) stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/cache" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/cache/go-build" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off TMPDIR="$out/tmp"
# Build settings from the caller's environment do not apply here.
unset GOFLAGS GOOS GOARCH GOEXPERIMENT

(cd perfbench && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
