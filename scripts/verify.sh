#!/bin/sh
# verify.sh — the repository's full verification gate.
#
# Runs tier-1 (build, vet, full test suite), vets the perfbench module,
# then runs the race-detector suites the ROADMAP requires for the
# concurrent driver, the miscompile oracle, the experiments harness, and
# the persistent disk cache. The long fault-injection soak is part of
# the default run; pass short=1 in the environment to gate it off (go
# test -short). Intended for CI and for humans before committing:
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

# The experiments harness measures up to the driver's worker bound of
# inputs at once, all sharing one driver's cache and oracle memo, so its
# suite (the workers=1 vs workers=8 determinism contract included)
# always runs under the race detector.
echo '== race: go test -race ./internal/experiments/...'
go test -race ./internal/experiments/...

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

# The parse memo hands one frozen program to every request of its text,
# and whichever compile first digests one of its functions fills that
# function's digest slot, so concurrent requests of one text share both.
# A single run can miss the interleaving that races, so the test repeats
# ten times under the race detector.
echo '== race: go test -race -count=10 -run TestParseMemoConcurrentCompileAndRun ./internal/ccmd/'
go test -race -count=10 -run TestParseMemoConcurrentCompileAndRun ./internal/ccmd/

# A frozen function keeps the text it is first printed as, and the
# served programs' functions are shared by every request that hits them,
# so concurrent first prints of one function must agree without a race.
echo '== race: go test -race -count=10 -run TestFuncTextKept ./internal/ir/'
go test -race -count=10 -run TestFuncTextKept ./internal/ir/

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
# webs rather than the CCM, disabled metrics and tracing must
# allocate nothing, and an oracle check whose every run the memo holds
# must resolve neither program (TestAllocGuardMemoizedCheck: the same
# allocation count and bytes at 8 and 4,096 blocks per function),
# printing a program must size one buffer for its whole text
# (TestAllocGuardPrint: compiled fpppp allocates as often as radb2, and
# reprinting a printed frozen program allocates its result alone),
# encoding a /compile response of a fpppp hit with the buffer pool warm
# must allocate nothing (TestAllocGuardEncodeResponse), and
# parsing uncompiled fpppp must stay under a fixed allocation count and
# byte ceiling (TestAllocGuardParse), so copying the names a program keeps
# cannot bring per-line garbage back, decoding a ccmd request body may
# allocate only the body buffer, one copy of its program text and a
# constant (TestAllocGuardDecodeRequest), and the register tables of a
# simulator run's live frames stay under one bound however deep it
# recurses (TestAllocGuardRegisterWords). Run
# with -count=1 so a cached 'ok' can never mask an allocation
# regression, and without -race (the race runtime inflates allocation
# counts).
echo "== alloc-guard: go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/ ./internal/regalloc/ ./internal/core/ ./internal/obs/ ./internal/oracle/ ./internal/ir/ ./internal/ccmd/"
go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/ ./internal/regalloc/ ./internal/core/ ./internal/obs/ ./internal/oracle/ ./internal/ir/ ./internal/ccmd/

# The root package holds one benchmark per paper table and figure plus
# the fpppp, simulator and parser micro-benchmarks; internal/pipeline
# holds the driver's cold, cached, observability and key benchmarks,
# internal/obs the span and metric ones, and internal/ccmd the request
# decode and the response encode (BenchmarkEncodeResponse). go vet compiles them but nothing else runs them, so run each
# once to catch a b.Fatal path.
echo "== bench: go test -run '^\$' -bench . -benchtime 1x . ./internal/pipeline/ ./internal/obs/ ./internal/ccmd/"
go test -run '^$' -bench . -benchtime 1x . ./internal/pipeline/ ./internal/obs/ ./internal/ccmd/

# The tier-1 run above replays only the seed corpora of the fuzz
# targets. Fuzz the three decoders of untrusted bytes for a bounded time
# each: the codec v2 program decoder, which reads cache entries, the
# ILOC parser, which reads every ccmd request's program, and ccmd's
# request reader, which must accept, refuse and decode every body as the
# encoding/json check it replaced did. Fuzz too ccmd's response string
# escaper, which must write what encoding/json writes for any string.
# A finding fails this step and is written under the package's
# testdata/fuzz for replay.
echo "== fuzz: go test -fuzz FuzzBinaryArtifactDecode, FuzzParse, FuzzDecodeRequest and FuzzEncodeString, 10s each"
go test -run '^$' -fuzz '^FuzzBinaryArtifactDecode$' -fuzztime 10s ./internal/pipeline/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/ir/
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/ccmd/
go test -run '^$' -fuzz '^FuzzEncodeString$' -fuzztime 10s ./internal/ccmd/

# Last, the line counts each change records in CHANGES.md.
echo '== loc: ./scripts/loc.sh'
./scripts/loc.sh

echo '== verify.sh: all green'
