#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload bglumae-mamp --seed 0 --seconds 30 --trace 0
#
# Run from the repository root. The Go build and module caches, temporary
# files, gateway journals and span traces all stay under
# .bench_build/perfbench in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/modcache" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
