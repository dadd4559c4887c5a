package pipeline

import (
	"fmt"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// TestAllocGuardProgramHit pins the clone-free cache-hit contract: a
// program-tier memory hit hands out the frozen artifact functions by
// reference, so its allocation count is a small constant (hash + report
// plumbing) no matter how large the program is. Input programs are
// cloned outside the measured region, so the measurement sees only the
// hit path itself; deep-cloning the artifact on that path costs a
// program-sized multiple of the budget and trips the guard immediately.
func TestAllocGuardProgramHit(t *testing.T) {
	p0 := workload.RandomProgram(31)
	d := New(Options{})
	cfg := detConfig(PostPassInterproc)
	mustCompile(t, d, p0.Clone(), cfg) // prime the program tier

	const runs = 10
	clones := make([]*ir.Program, 0, runs+2)
	for i := 0; i < runs+2; i++ { // AllocsPerRun adds one warm-up call
		clones = append(clones, p0.Clone())
	}
	cloneCost := testing.AllocsPerRun(5, func() { _ = p0.Clone() })

	next := 0
	hitCost := testing.AllocsPerRun(runs, func() {
		rep, err := d.Compile(clones[next], cfg)
		next++
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ProgramCacheHit {
			t.Fatal("compile was not a program-tier hit")
		}
	})
	t.Logf("program hit: %.0f allocs/op (one deep clone alone: %.0f)", hitCost, cloneCost)
	if hitCost >= cloneCost {
		t.Errorf("program hit allocates %.0f/op, at least one deep clone's worth (%.0f) — hits are no longer clone-free", hitCost, cloneCost)
	}
	// Absolute ceiling with headroom over the measured constant. The
	// clone this guard excludes grows with program size, so the fixed
	// ceiling stays discriminating on any workload this large.
	const ceiling = 200
	if hitCost > ceiling {
		t.Errorf("program hit allocates %.0f/op, over the %d ceiling", hitCost, ceiling)
	}
}

// TestAllocGuardWarmFuncTiers pins the copy-on-write rule: a compile
// that misses the program key but hits every front and back key copies
// nothing of its input. An integrated compile has no barrier, so every
// function is served and none is rewritten; each run varies DiffVectors,
// which only the program key reads. Unchecked, such a compile must
// allocate less than one deep clone of its input. A checked one, whose
// oracle runs a memo primed at 20 vectors serves, stays under a fixed
// ceiling; a compile that clones its input for the oracle trips it.
func TestAllocGuardWarmFuncTiers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled hashing writers at random; verify.sh runs this guard without it")
	}
	p0 := workload.RandomProgram(31)
	cloneCost := testing.AllocsPerRun(5, func() { _ = p0.Clone() })
	cfg := detConfig(Integrated)
	// warm compiles a deep copy of the input under cfg at 20 vectors,
	// storing every front and back artifact (and, for a checked cfg,
	// priming the oracle memo), then measures compiles of one build at
	// DiffVectors 1, 2, ...
	warm := func(cfg Config) float64 {
		d := New(Options{})
		mustCompile(t, d, p0.Clone(), with(cfg, func(c *Config) { c.DiffVectors = 20 }))
		const runs = 10
		inputs := make([]*ir.Program, runs+1) // AllocsPerRun adds one warm-up call
		for i := range inputs {
			inputs[i] = &ir.Program{Globals: p0.Globals, Funcs: append([]*ir.Func(nil), p0.Funcs...)}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			c := cfg
			c.DiffVectors = next + 1
			rep, err := d.Compile(inputs[next], c)
			next++
			if err != nil {
				t.Fatal(err)
			}
			if rep.ProgramCacheHit {
				t.Fatal("a DiffVectors change hit the program tier")
			}
			for name, fr := range rep.PerFunc {
				if !fr.FrontCacheHit || !fr.BackCacheHit {
					t.Fatalf("%s missed the front or back tier", name)
				}
			}
		})
	}
	unchecked := warm(cfg)
	checked := warm(with(cfg, func(c *Config) { c.DiffCheck = DiffFinal }))
	t.Logf("warm function tiers: %.0f allocs/op unchecked, %.0f checked (one deep clone alone: %.0f)", unchecked, checked, cloneCost)
	if unchecked >= cloneCost {
		t.Errorf("unchecked compile allocates %.0f/op, at least one deep clone's worth (%.0f): it copies its input", unchecked, cloneCost)
	}
	const ceiling = 220
	if checked > ceiling {
		t.Errorf("checked compile allocates %.0f/op, over the %d ceiling", checked, ceiling)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestAllocGuardKeys pins the pooled hashing writers: digesting a
// program and computing its program, front and back keys allocates a
// constant per function, however many instructions and strings the
// functions hold. Two programs with the same functions, one 64 times the
// size of the other in blocks, instructions and names, must cost the
// same; a hash allocated per key, or a string converted to a []byte,
// grows with the content and trips the guard. A staging buffer that
// grows with the function would grow once, in AllocsPerRun's warm-up
// call, and hide in the pool, so its capacity is checked directly.
//
// A frozen program keeps its function digests, so digesting it a second
// time encodes no function and allocates nothing: its digest survives a
// rewrite of every function made behind the frozen flag's back.
func TestAllocGuardKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled hashing writers at random; verify.sh runs this guard without it")
	}
	cfg := detConfig(PostPassInterproc).withDefaults()
	keys := func(p *ir.Program) float64 {
		return testing.AllocsPerRun(10, func() {
			fds := make([]digest, len(p.Funcs))
			pd := programDigest(p, fds)
			programKey(pd, cfg)
			for i, f := range p.Funcs {
				frontKey(fds[i], cfg)
				backKey(f, cfg)
			}
		})
	}
	small, large := keyProgram(), scaledKeyProgram(64)
	if len(small.Funcs) != len(large.Funcs) {
		t.Fatal("the two programs must have the same functions")
	}
	smallCost, largeCost := keys(small), keys(large)
	t.Logf("keys: %.0f allocs/op small, %.0f allocs/op at 64x the content", smallCost, largeCost)
	if largeCost > smallCost {
		t.Errorf("key work allocates %.0f/op at 64x the content, %.0f/op at 1x: it grows with the content", largeCost, smallCost)
	}
	if perFunc := largeCost / float64(len(large.Funcs)); perFunc > 1 {
		t.Errorf("key work allocates %.1f/op per function, over the ceiling of 1", perFunc)
	}
	w := newHashWriter(funcDigestTag)
	for _, f := range large.Funcs {
		w.fn(f)
	}
	if c := cap(w.b); c > 2*hashChunk {
		t.Errorf("hashing %d functions of the large program grew the staging buffer to %d bytes, over %d", len(large.Funcs), c, 2*hashChunk)
	}
	w.sum()

	frozen := scaledKeyProgram(64)
	freezeFuncs(frozen.Funcs)
	first := programDigest(frozen, nil)
	again := testing.AllocsPerRun(10, func() { programDigest(frozen, nil) })
	for _, f := range frozen.Funcs {
		f.Blocks[0].Instrs[0].Imm++
	}
	t.Logf("keys: a frozen program digested again: %.0f allocs/op", again)
	if again != 0 {
		t.Errorf("digesting a frozen program again allocates %.0f/op, want 0", again)
	}
	if programDigest(frozen, nil) != first {
		t.Error("digesting a frozen program again encoded its functions instead of reading their kept digests")
	}
}

// scaledKeyProgram is keyProgram with every function's blocks repeated n
// times, each copy under its own longer name, and n times the registers.
func scaledKeyProgram(n int) *ir.Program {
	p := keyProgram()
	for _, f := range p.Funcs {
		regs, blocks := f.Regs, f.Blocks
		f.Regs, f.Blocks = nil, nil
		for k := 0; k < n; k++ {
			suffix := fmt.Sprintf("_copy_%d", k)
			for _, r := range regs {
				f.Regs = append(f.Regs, ir.RegInfo{Class: r.Class, Name: r.Name + suffix})
			}
			for _, b := range blocks {
				nb := &ir.Block{Name: b.Name + suffix, Instrs: append([]ir.Instr(nil), b.Instrs...)}
				for i := range nb.Instrs {
					in := &nb.Instrs[i]
					in.Sym += suffix
					if in.Then != "" {
						in.Then += suffix
					}
					if in.Else != "" {
						in.Else += suffix
					}
				}
				f.Blocks = append(f.Blocks, nb)
			}
		}
	}
	return p
}
