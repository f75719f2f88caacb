#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ in the checkout. The last line of standard output is the
# run's JSON result; a failed build exits non-zero without printing one.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The commit is recorded only when the checkout is itself a git work
# tree; an exported tree has none.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD)
fi
exec "$out/perfbench" --commit "$commit" "$@"
