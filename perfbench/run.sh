#!/usr/bin/env bash
# Builds attritiond and the benchmark program from the checkout's source,
# then runs the benchmark. Run from the repository root:
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 45 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the repository root (Go build cache, binaries, cached fixtures, per-run
# state), so nothing is read or written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default is "local"), every go command forks a
# detached sidecar that outlives it. Turn it off in the private config dir
# so the build leaves no process behind.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -o "$out/bin/attritiond" ./cmd/attritiond
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/attritiond" -work "$out" "$@"
