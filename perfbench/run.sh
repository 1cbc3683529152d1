#!/usr/bin/env bash
# Builds the semandaq service benchmark from source and runs it, passing
# every argument on. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload single-read --seed 1 --seconds 25 --trace 0
#
# The build cache, the go command's own config and telemetry files, the
# binary, temp data and trace output all live under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
