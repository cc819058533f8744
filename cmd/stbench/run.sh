#!/usr/bin/env bash
# Builds the stbench driver and runs it from the repository root, passing
# every argument through:
#
#   bash cmd/stbench/run.sh --workload grid-warm --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files, the driver and the binaries it
# builds all live under .bench_build/ at the repository root, so a run reads
# and writes nothing outside the checkout apart from the Go toolchain itself.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd cmd/stbench && go build -o "$out/stbench" .)
exec "$out/stbench" --root "$root" --build-dir "$out" "$@"
