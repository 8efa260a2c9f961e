#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it; all
# arguments are passed through (see main.go). Run from the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the build cache, temporary files and the go command's own config
# and telemetry files inside the checkout, never fetch modules or
# toolchains, and ignore any user-level go env file.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" --workdir "$out/work" "$@"
