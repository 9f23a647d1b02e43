#!/usr/bin/env bash
# Builds syddirectory, sydnode and the calbench driver from this
# checkout into .bench_build/, then runs the driver. Run from the
# checkout root:
#
#   bash calbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sydnode" || ! -d "$root/cmd/syddirectory" ]]; then
	echo "calbench: run from the root of a checkout holding go.mod and cmd/" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp" "$build/bin"
# The go command's cache, module path, config and telemetry files, and
# temporary files all live under .bench_build; no toolchain download.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/bin/" ./cmd/syddirectory ./cmd/sydnode
(cd "$root/calbench" && go build -o "$build/bin/calbench" .)
exec "$build/bin/calbench" -root "$root" -bin "$build/bin" "$@"
