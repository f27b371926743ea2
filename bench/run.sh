#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh                      every workload, untraced then traced,
#                                     each in a fresh process; one combined
#                                     result in bench/out/result.json
#   bench/run.sh --aa                 the same twice; fails if two runs of the
#                                     same code disagree beyond the bounds
#   bench/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                     one run (what BENCHMARK.json's command is)
#
# The benchmark and the faqd daemon it drives are built from source into
# .bench_build/ at the repository root, with the Go build cache and temp
# directory there too, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"

# Rebuild only when a source file is newer than the binary: a link per
# run would cost more than some set-ups.
stale() {
	[ ! -x "$1" ] || [ -n "$(find . -path ./.bench_build -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$build/bench" || stale "$build/faqd"; then
	go build -o "$build/faqd" ./cmd/faqd
	go build -o "$build/bench" ./bench
fi

if [ "$#" -eq 0 ]; then
	set -- -all
fi
exec "$build/bench" -faqd "$build/faqd" -out bench/out "$@"
