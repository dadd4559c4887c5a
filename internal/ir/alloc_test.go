package ir_test

import (
	"testing"

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
