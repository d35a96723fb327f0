#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness into
# .bench_build/ at the root of the checkout and runs it. The Go build
# cache, GOPATH, TMPDIR (storage directories, go's work dir) and the
# user configuration directory (where the go command keeps its telemetry
# counters) are all pointed inside .bench_build/, so a run reads and
# writes only inside the checkout.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
go build -C "$here" -o "$out/ixbench" .
cd "$root"
exec "$out/ixbench" "$@"
