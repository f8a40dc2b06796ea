#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
# Everything the build leaves behind stays under .bench_build/ in the
# checkout: the Go build cache, its temp files and the go command's
# config directory would otherwise land in $HOME and /tmp.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/hydra-bench" .)
cd "$root"
exec "$out/hydra-bench" "$@"
