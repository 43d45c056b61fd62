#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Usage (from the repository root):
#   bash bmcbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay inside .bench_build/ of the checkout; the
# compiler's messages go to standard error so the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bmcbench/go.mod" ]; then
	echo "bmcbench: run from the repository root (go.mod and bmcbench/go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bmcbench" && go build -o "$out/bmcbench" .) >&2
exec "$out/bmcbench" "$@"
