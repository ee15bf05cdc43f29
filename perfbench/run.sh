#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, the binary, spans) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

workload= seed= seconds= trace=
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
	shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ] || [ -z "$trace" ]; then
	echo "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>" >&2
	exit 2
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
spans=
if [ "$trace" = 1 ]; then
	mkdir -p "$out/spans"
	spans="$out/spans/$workload.jsonl"
fi
exec "$out/perfbench" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace "$trace" -spans "$spans"
