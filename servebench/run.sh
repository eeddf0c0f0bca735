#!/usr/bin/env bash
# Builds jarvisd and the serving benchmark from source and runs the
# benchmark. Run it from the repository root; every argument is passed on:
#
#   bash servebench/run.sh --workload durable-mix --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache, WALs, reports and Chrome traces all live
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

# go build (not go run) so the daemon carries its VCS stamp when the tree
# is a git checkout; jarvisd reports it as jarvisd.build.info.
go build -o "$out/bin/jarvisd" ./cmd/jarvisd
(cd "$here" && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -jarvisd "$out/bin/jarvisd" -work "$out/servebench" "$@"
