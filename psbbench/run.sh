#!/usr/bin/env bash
# Builds the benchmark and the daemon from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash psbbench/run.sh --workload artifacts --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache. The last line of standard
# output is the result object; progress goes to standard error.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f psbbench/go.mod ] || [ ! -d internal ]; then
	echo "psbbench: run from the repository root (go.mod, internal/ and psbbench/ must be here)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/psbbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's own settings and telemetry live under the user config
# directory; keep both inside the checkout.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
# Knobs that change what the measured processes do (see cleanEnv in main.go).
unset PSB_CYCLE_MODE PSB_FAULTS GOGC GOMEMLIMIT GODEBUG

(cd "$root/psbbench" && go build -o "$out/psbbench" .) >&2
go build -o "$out/psbserved" ./cmd/psbserved >&2
exec "$out/psbbench" --root "$root" --out "$out" "$@"
