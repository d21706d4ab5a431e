#!/usr/bin/env bash
# Builds the benchmark harness and the pased daemon from this checkout's
# sources, then runs the harness from the repository root with the given
# arguments. Everything built lands in .bench_build/ at the root, the Go build
# cache included, so a run reads and writes only inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local

# Rebuild when a binary is missing or any Go source in the checkout is newer.
stale() {
    [ ! -x "$1" ] || [ -n "$(find . -path ./.bench_build -prune -o \
        \( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$build/bin/pased" || stale "$build/bin/benchmark"; then
    go build -o "$build/bin/pased" ./cmd/pased >&2
    go -C benchmark build -o "$build/bin/benchmark" . >&2
fi
exec "$build/bin/benchmark" "$@"
