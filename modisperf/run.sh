#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from the checkout's own
# sources, then runs one measurement. Everything it writes stays inside the
# checkout: binaries, the Go build cache and scratch state under
# .bench_build/, traces and digests under modisperf/out/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gomodcache GOTMPDIR=$build/gotmp
# No module is downloaded (the repo is stdlib-only) and the go command's own
# bookkeeping (telemetry counters) is redirected into the checkout too.
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
(cd "$root" && go build -o "$build/bin/" ./cmd/modisd ./cmd/modisproxy)
(cd "$here" && go build -o "$build/bin/modisperf" .)
exec "$build/bin/modisperf" -bin "$build/bin" -scratch "$build/tmp" -out "$here/out" "$@"
