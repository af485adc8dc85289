#!/usr/bin/env bash
# Builds the benchmark and the scanpowerd daemon from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root: bash benchmark/run.sh -workload table1 -seed 1 -seconds 25 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, daemon stores
# and span files. No module is downloaded.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off TMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR" "$HOME" "$out/bin"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$root/benchmark" &&
	go build -o "$out/bin/benchmark" . &&
	go build -o "$out/bin/scanpowerd" repro/cmd/scanpowerd)

exec "$out/bin/benchmark" -work "$out" -daemon "$out/bin/scanpowerd" "$@"
