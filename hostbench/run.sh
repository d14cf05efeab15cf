#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout and runs it. Run it
# from the repository root:
#
#   bash hostbench/run.sh --workload sweep-scale --seed 1 --seconds 15 --trace 0
#   bash hostbench/run.sh -compare old-runs/ new-runs/
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, its
# temporary files and the binary. The build is offline and uses the
# local toolchain only.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/hostbench" && go build -buildvcs=false -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
