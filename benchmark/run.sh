#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given flags. Run from the repository root:
#
#   bash benchmark/run.sh --workload oldc-d128 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files stay in
# .bench_build/ under the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: $root is not the repository root (no go.mod, internal/ or benchmark/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/benchmark" build -trimpath -buildvcs=false -o "$out/ldcbench" .

# The revision: git's when the root is a checkout, else a digest of the
# module's sources.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"

exec "$out/ldcbench" -commit "$commit" -data "$out" "$@"
