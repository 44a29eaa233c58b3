#!/usr/bin/env bash
# Builds cluseqd and the benchmark program from this checkout's sources,
# then runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload train|serve|ingest --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, binaries, the
# per-run scratch directories and trace files) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export TMPDIR=$build/tmp HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go build -o "$build/bin/cluseqd" ./cmd/cluseqd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
