#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the root of the repository:
#
#   bash bench/run.sh --workload engine-or --seed 1 --seconds 10 --trace 0
#
# The benchmark driver runs this in a bare checkout (no .git, nothing that
# .gitignore names) and requires that the benchmark build the program there
# from source and read and write only inside the checkout. `go run ./bench`
# would write the build cache under $HOME, so everything the Go toolchain
# writes (build cache, temporary files, the binary) is sent to
# .bench_build/ instead. The first call compiles the standard library into
# the fresh cache and takes about a minute; later calls find everything
# cached.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of the repository (no go.mod and internal/ here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
