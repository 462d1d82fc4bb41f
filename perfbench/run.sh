#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it
# with the arguments given, e.g.
#   bash perfbench/run.sh --workload cow-read --seed 1 --seconds 10 --trace 0
# Run it from the root of the repository. The build cache, the binary and
# the traced run's spans and CPU profile all go to .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
