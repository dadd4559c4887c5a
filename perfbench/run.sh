#!/usr/bin/env bash
# Builds the benchmark and the ccmd/ccmcached daemons from this checkout's
# sources, then runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload tables-cold --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary build files, the binaries and
# the benchmark's scratch stores. A build is skipped when the sources are
# unchanged since the last one.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
mkdir -p "$out/bin" "$out/tmp"

stamp=$({ go version; find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	-type f \( -name '*.go' -o -name go.mod -o -name '*.txt' \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum; } | sha256sum | cut -d' ' -f1)
if [ "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]; then
	rm -f "$out/bin/stamp"
	(
		cd perfbench
		go build -o "$out/bin/perfbench" .
		go build -o "$out/bin/ccmd" ccmem/cmd/ccmd
		go build -o "$out/bin/ccmcached" ccmem/cmd/ccmcached
	) >&2
	echo "$stamp" >"$out/bin/stamp"
fi

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" -source-sha256 "$stamp" "$@"
