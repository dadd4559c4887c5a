package ir_test

import (
	"runtime"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// TestAllocGuardPrint pins the printer's one-buffer discipline: printing
// a program sizes one buffer for its whole text, so compiled fpppp,
// about eleven times the text of compiled radb2, allocates as often.
// A printer that builds register names or instructions as strings of
// their own allocates per instruction and trips the guard at once.
func TestAllocGuardPrint(t *testing.T) {
	prints := func(name string) (allocs float64, bytes int) {
		r, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("no routine %s", name)
		}
		p, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.Config{Strategy: pipeline.PostPass, CCMBytes: 512}
		if _, err := pipeline.New(pipeline.Options{Workers: 1}).Compile(p, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { _ = p.String() }), len(p.String())
	}
	big, bigBytes := prints("fpppp")
	small, smallBytes := prints("radb2")
	t.Logf("printing: fpppp %d bytes in %.0f allocs, radb2 %d bytes in %.0f allocs", bigBytes, big, smallBytes, small)
	if big != small || big > 4 {
		t.Errorf("printing fpppp allocates %.0f times and radb2 %.0f: want the same count, at most 4", big, small)
	}
}

// TestAllocGuardParse pins the parser's allocation on the largest suite
// input: parsing uncompiled fpppp (about 4,000 lines) stays under a fixed
// count and byte ceiling. When the parser began copying the names it
// keeps, the parse made 3,069 allocations of 1,103,308 bytes in all. A
// parser that makes a string or a slice per line trips the count, and
// one that grows the register table entry by entry (1,355,388 bytes)
// trips the bytes.
func TestAllocGuardParse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations; verify.sh runs this guard without it")
	}
	r, ok := workload.Lookup("fpppp")
	if !ok {
		t.Fatal("no routine fpppp")
	}
	p, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	text := p.String()
	parse := func() {
		if _, err := ir.Parse(text); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10
	allocs := testing.AllocsPerRun(runs, parse)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("parsing fpppp (%d bytes of text): %.0f allocs, %d bytes", len(text), allocs, bytes)
	const maxAllocs, maxBytes = 3_200, 1_200_000
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("parsing fpppp made %.0f allocations of %d bytes, want at most %d of %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
