#!/usr/bin/env bash
# Runs the benchmark on two checkouts in alternation, then compares the
# two sets. Alternating puts any drift in host speed on both sides
# alike, so it cannot read as a change. Run it from the root of the
# checkout whose BENCHMARK.json holds the bounds:
#
#   bash hostbench/ab.sh <old-checkout> <new-checkout> <out-dir> <runs> <seconds> <workload>...
#
# Run i of each workload uses seed i on both sides. Odd runs start with
# the old checkout and even runs with the new one. Outputs are saved as
# <out-dir>/old/<workload>-<i>.txt and <out-dir>/new/<workload>-<i>.txt,
# and the exit code is that of `hostbench -compare` on the two sets.
set -euo pipefail

if [ $# -lt 6 ]; then
	echo "usage: bash hostbench/ab.sh <old-checkout> <new-checkout> <out-dir> <runs> <seconds> <workload>..." >&2
	exit 1
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
mkdir -p "$3/old" "$3/new"
out=$(cd "$3" && pwd)
runs=$4
seconds=$5
shift 5

# one <side> <checkout> <workload> <seed>: each checkout builds into its
# own .bench_build, so a shared CARGO_TARGET_DIR must not leak in.
one() {
	(cd "$2" && env -u CARGO_TARGET_DIR bash hostbench/run.sh \
		--workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$out/$1/$3-$4.txt"
}

for i in $(seq 1 "$runs"); do
	for w in "$@"; do
		if [ $((i % 2)) -eq 1 ]; then
			one old "$old" "$w" "$i"
			one new "$new" "$w" "$i"
		else
			one new "$new" "$w" "$i"
			one old "$old" "$w" "$i"
		fi
	done
done
bash hostbench/run.sh -compare "$out/old" "$out/new"
