#!/bin/sh
# verify.sh — the repository's full verification gate.
#
# Runs tier-1 (build, vet, full test suite), vets the perfbench module,
# then runs the race-detector suites the ROADMAP requires for the
# concurrent driver, the miscompile oracle, and the persistent disk
# cache. The long fault-injection soak is part of the default run; pass
# short=1 in the environment to gate it off (go test -short). Intended
# for CI and for humans before committing:
#
#	./scripts/verify.sh
#
# Exits nonzero at the first failing step.
set -eu

cd "$(dirname "$0")/.."

# -short gates the slow disk-cache fault soak; set short=1 to run the
# fast profile.
SHORTFLAG=''
if [ "${short:-0}" = 1 ]; then
	SHORTFLAG='-short'
fi

echo '== hygiene: gofmt -l'
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo '== tier-1: go build ./...'
go build ./...

echo '== tier-1: go vet ./...'
go vet ./...

echo '== tier-1: go test ./...'
go test ./...

# perfbench is its own module (replace ccmem => ../), so the tier-1
# steps above never build it; vet it here so a pipeline API change that
# breaks the benchmark fails this gate instead of the benchmark run.
echo '== perfbench: go vet ./... (its own module)'
(cd perfbench && GOWORK=off go vet ./...)

echo "== race: go test -race $SHORTFLAG ./internal/pipeline/... ./internal/oracle/..."
go test -race $SHORTFLAG ./internal/pipeline/... ./internal/oracle/...

# The observability subsystem's whole point is concurrent-safe counters
# and per-worker span shards, so its suite always runs under the race
# detector.
echo '== race: go test -race ./internal/obs/...'
go test -race ./internal/obs/...

# The diskcache suite includes the deterministic fault-injection soak
# (TestFaultSoak), which is skipped under -short; the race run below
# executes it in full unless short=1.
echo "== race: go test -race $SHORTFLAG ./internal/diskcache/..."
go test -race $SHORTFLAG ./internal/diskcache/...

# The bearer-token check is called from concurrent handlers on both
# daemons, so its suite always runs under the race detector.
echo '== race: go test -race ./internal/authtoken/...'
go test -race ./internal/authtoken/...

# The compile service multiplexes concurrent clients over one shared
# driver; its suite (admission backpressure, drain, the N-client
# byte-identity matrix) always runs under the race detector.
echo '== race: go test -race ./internal/ccmd/...'
go test -race ./internal/ccmd/...

# Daemon e2e smoke: build the real ccmd binary, serve on an ephemeral
# port, compile over HTTP (bytes must match a solo ccmc compile), scrape
# /metrics and /version, SIGTERM, and assert a clean drain.
echo '== e2e: go test -race -run TestDaemonSmoke ./cmd/ccmd/'
go test -race -run TestDaemonSmoke ./cmd/ccmd/

# The remote cache tier (client breaker/retries/verification, server
# ingest verification, fault-injecting RoundTripper) is concurrent by
# construction; the suite always runs under the race detector.
echo "== race: go test -race $SHORTFLAG ./internal/remotecache/..."
go test -race $SHORTFLAG ./internal/remotecache/...

# Cache-daemon e2e smoke: build the real ccmcached binary, round-trip an
# entry byte-identically, reject a corrupt upload at the door, SIGTERM,
# and assert a clean drain.
echo '== e2e: go test -race -run TestCacheDaemonSmoke ./cmd/ccmcached/'
go test -race -run TestCacheDaemonSmoke ./cmd/ccmcached/

# Allocation guards: the program-tier cache hit must stay clone-free
# (handing out frozen artifacts by reference), a compile that misses the
# program key but hits every front and back key must copy nothing of its
# input (TestAllocGuardWarmFuncTiers: less than one deep clone unchecked,
# a fixed ceiling with the oracle on), digesting a program and
# computing its cache keys must allocate a constant per function however
# large the functions are (TestAllocGuardKeys), the liveness solver
# must keep its reset-not-realloc arena discipline, a simulator run
# must allocate the memory it touches rather than the whole stack, the
# register allocator must carve each round's interference rows from
# its pooled scratch, post-pass CCM colouring must size its flags by the
# webs rather than the CCM, and disabled metrics and tracing must
# allocate nothing. Run with -count=1 so a cached 'ok' can never mask an
# allocation regression, and without -race (the race runtime inflates
# allocation counts).
echo "== alloc-guard: go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/ ./internal/regalloc/ ./internal/core/ ./internal/obs/"
go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/ ./internal/regalloc/ ./internal/core/ ./internal/obs/

# The root package holds one benchmark per paper table and figure plus
# the fpppp, simulator and parser micro-benchmarks; internal/pipeline
# holds the driver's cold, cached, observability and key benchmarks, and
# internal/obs the span and metric ones. go vet compiles them but nothing
# else runs them, so run each once to catch a b.Fatal path.
echo "== bench: go test -run '^\$' -bench . -benchtime 1x . ./internal/pipeline/ ./internal/obs/"
go test -run '^$' -bench . -benchtime 1x . ./internal/pipeline/ ./internal/obs/

echo '== verify.sh: all green'
