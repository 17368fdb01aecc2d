#!/usr/bin/env bash
# Builds the dialogue-cost benchmark and expectd from this checkout, then
# runs one workload. Run from anywhere; build outputs, the Go build cache
# and span logs stay under .bench_build/ at the checkout root.
#
#   bash dialoguebench/run.sh --workload script|gateway-login|gateway-bulk \
#       --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off GOTOOLCHAIN=local
cd "$root/dialoguebench"
go build -o "$out/bin/dialoguebench" .
go build -o "$out/bin/expectd" repro/cmd/expectd
cd "$root"
exec "$out/bin/dialoguebench" --expectd "$out/bin/expectd" --out "$out" "$@"
