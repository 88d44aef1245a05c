#!/usr/bin/env bash
# Builds lcrqbench from the sources of the checkout this script sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files go to
# .bench_build/ at the checkout root, and the Go toolchain is told to stay
# offline and to ignore per-user settings, so a run reads and writes only
# inside the checkout (and the toolchain's own installation). Build output
# goes to standard error; standard output is the benchmark's alone.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
# Keep git, which stamps provenance, from searching above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

# Stamp the commit and dirty flag into the binary only when the checkout is
# itself a git work tree.
vcs=false
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	vcs=auto
fi

(cd "$root/bench" && go build -buildvcs="$vcs" -o "$out/lcrqbench" ./lcrqbench) >&2
cd "$root"
exec "$out/lcrqbench" "$@"
