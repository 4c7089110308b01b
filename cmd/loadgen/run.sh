#!/usr/bin/env bash
# Builds cmd/loadgen from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash cmd/loadgen/run.sh --workload cad-cold --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and its temporary files all stay under
# .bench_build/ in the current directory, so a run writes nothing outside
# the checkout. Outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/cmd/loadgen" && go build -o "$out/loadgen" .)
exec "$out/loadgen" "$@"
