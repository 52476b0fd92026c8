#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it from
# the repository root, passing every argument through. Build outputs, the Go
# build cache, temporary files and span files all stay under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd pipebench && go build -o "$build/pipebench" .)
exec "$build/pipebench" --out "$build" "$@"
