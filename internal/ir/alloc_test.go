package ir_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// TestAllocGuardPrint pins the printer's one-buffer discipline: printing
// a program sizes one buffer for its whole text, so compiled fpppp,
// about eleven times the text of compiled radb2, allocates as often.
// A printer that builds register names or instructions as strings of
// their own allocates per instruction and trips the guard at once. It
// pins too that reprinting a printed frozen program allocates its result
// alone: its functions' kept texts are copied, not printed again.
func TestAllocGuardPrint(t *testing.T) {
	prints := func(name string) (allocs, reprint float64, bytes int) {
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
		mutable := p.Clone()
		for _, f := range p.Funcs {
			f.Freeze()
		}
		text := p.String()
		if mutable.String() != text {
			t.Fatalf("%s: the frozen program prints other bytes than its mutable clone", name)
		}
		return testing.AllocsPerRun(10, func() { _ = mutable.String() }),
			testing.AllocsPerRun(10, func() { _ = p.String() }), len(text)
	}
	big, bigReprint, bigBytes := prints("fpppp")
	small, smallReprint, smallBytes := prints("radb2")
	t.Logf("printing: fpppp %d bytes in %.0f allocs, radb2 %d bytes in %.0f allocs", bigBytes, big, smallBytes, small)
	if big != small || big > 4 {
		t.Errorf("printing fpppp allocates %.0f times and radb2 %.0f: want the same count, at most 4", big, small)
	}
	if bigReprint != 1 || smallReprint != 1 {
		t.Errorf("reprinting frozen fpppp allocates %.0f times and radb2 %.0f: want once, for the result", bigReprint, smallReprint)
	}
}

// TestAllocGuardParse pins the parser's allocation on the largest suite
// input: parsing uncompiled fpppp (about 4,000 lines) stays under a fixed
// count and byte ceiling. When the parser began copying the names it
// keeps, the parse made 3,069 allocations of 1,103,308 bytes in all; since
// each block's instructions are appended in place to a slice sized from
// a count of its instruction lines, it makes 3,063 of 500,027 bytes. A
// parser that makes a string or a slice per line trips the count, and
// one that grows a block's instructions (1,105,505 bytes) or the
// register table entry by entry trips the bytes.
//
// It pins too that the count ends each block where the parser does: a
// chain of 500 one-jump blocks, each label followed by a comment and
// each jump by a blank line, parses in 240,283 bytes. A count that did
// not strip the comment before its label test reserved each block room
// for every line after it, 37,921,800 bytes here and quadratic in the
// blocks.
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
	allocs, bytes := parseCost(t, text)
	t.Logf("parsing fpppp (%d bytes of text): %.0f allocs, %d bytes", len(text), allocs, bytes)
	const maxAllocs, maxBytes = 3_200, 520_000
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("parsing fpppp made %.0f allocations of %d bytes, want at most %d of %d", allocs, bytes, maxAllocs, maxBytes)
	}

	const blocks = 500
	var b strings.Builder
	b.WriteString("func main() {\n")
	for i := 0; i < blocks; i++ {
		fmt.Fprintf(&b, "b%d: # block %d\n\tjmp b%d\n\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n\tret\n}\n", blocks)
	text = b.String()
	_, bytes = parseCost(t, text)
	t.Logf("parsing %d commented labels (%d bytes of text): %d bytes", blocks, len(text), bytes)
	const labelBytes = 300_000
	if bytes > labelBytes {
		t.Errorf("parsing %d commented labels allocated %d bytes, want at most %d", blocks, bytes, labelBytes)
	}
}

// TestParseSizesBlocksExactly: the parser sizes each block's
// instructions at their count, for printed ILOC and for text whose every
// line carries a comment (one that ends in a colon among them) and is
// followed by a blank line.
func TestParseSizesBlocksExactly(t *testing.T) {
	r, ok := workload.Lookup("fpppp")
	if !ok {
		t.Fatal("no routine fpppp")
	}
	p, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	printed := p.String()
	var b strings.Builder
	for i, line := range strings.Split(printed, "\n") {
		fmt.Fprintf(&b, "%s # line %d:\n\n", line, i)
	}
	for name, text := range map[string]string{"printed": printed, "commented": b.String()} {
		q, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range q.Funcs {
			for _, blk := range f.Blocks {
				if len(blk.Instrs) != cap(blk.Instrs) {
					t.Errorf("%s: %s.%s holds %d instructions in room for %d", name, f.Name, blk.Name, len(blk.Instrs), cap(blk.Instrs))
				}
			}
		}
	}
}

// parseCost returns the allocations and the bytes one parse of text
// makes.
func parseCost(t *testing.T, text string) (allocs float64, bytes uint64) {
	t.Helper()
	parse := func() {
		if _, err := ir.Parse(text); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10
	allocs = testing.AllocsPerRun(runs, parse)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
