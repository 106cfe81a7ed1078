#!/usr/bin/env bash
# Builds zkbench and zkmld from this checkout, then runs one benchmark run:
#
#   bash zkbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs, the Go build cache, stores,
# plan records and traces all stay under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/zkmld || ! -f zkbench/go.mod ]]; then
	echo "zkbench: run from the repository root (go.mod, cmd/zkmld and zkbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/zkmld" ./cmd/zkmld
(cd zkbench && go build -o "$out/bin/zkbench" .)

exec "$out/bin/zkbench" -work "$out" -calibration "$root/zkbench/calibration.json" \
	-zkmld "$out/bin/zkmld" "$@"
