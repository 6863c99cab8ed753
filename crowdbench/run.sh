#!/usr/bin/env bash
# Builds eyeorg-server, eyeorg-router and the crowdbench generator from
# the checkout this script sits in, then runs one benchmark pass:
#
#   bash crowdbench/run.sh --workload durable-json --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binaries, data dirs, logs and reports.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
for need in go.mod cmd/eyeorg-server cmd/eyeorg-router; do
	if [ ! -e "$root/$need" ]; then
		echo "crowdbench: $root/$need is missing: run this from a checkout of the platform" >&2
		exit 1
	fi
done
mkdir -p "$build/bin" "$build/home/.config/go/telemetry" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, the go command forks a detached upload process that
# can outlive the build; "off" in the mode file keeps it from starting.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root" && go build -o "$build/bin/" ./cmd/eyeorg-server ./cmd/eyeorg-router)
(cd "$here" && go build -o "$build/bin/crowdbench" .)
exec "$build/bin/crowdbench" -bin "$build/bin" -root "$root" -out "$build/out" -work "$build/work" "$@"
