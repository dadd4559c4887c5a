package pipeline

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

var allStrategies = []Strategy{NoCCM, PostPass, PostPassInterproc, Integrated}

const detSeeds = 6 // random programs per strategy in the determinism suite

func detConfig(s Strategy) Config {
	cfg := Config{Strategy: s}
	if s != NoCCM {
		cfg.CCMBytes = 512
	}
	return cfg
}

func mustCompile(t *testing.T, d *Driver, p *ir.Program, cfg Config) *Report {
	t.Helper()
	rep, err := d.Compile(p, cfg)
	if err != nil {
		t.Fatalf("Compile(%v): %v", cfg.Strategy, err)
	}
	return rep
}

func runEmit(t *testing.T, p *ir.Program, ccmBytes int64) []sim.Value {
	t.Helper()
	st, err := sim.Run(p, "main", sim.Config{CCMBytes: ccmBytes})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return st.Output
}

// TestParallelDeterminism is the headline invariant: compiling the random
// program suite with workers=8 must produce byte-identical ILOC — and
// therefore identical emit traces — to workers=1, for every strategy.
// Run under -race, it doubles as the pool's race-detector workload.
func TestParallelDeterminism(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := detConfig(strat)
		for seed := int64(1); seed <= detSeeds; seed++ {
			seq := New(Options{Workers: 1, DisableCache: true})
			par := New(Options{Workers: 8, DisableCache: true})

			p1 := workload.RandomProgram(seed)
			p8 := workload.RandomProgram(seed)
			if p1.String() != p8.String() {
				t.Fatalf("seed %d: RandomProgram is not deterministic", seed)
			}

			rep1 := mustCompile(t, seq, p1, cfg)
			rep8 := mustCompile(t, par, p8, cfg)

			if got, want := p8.String(), p1.String(); got != want {
				t.Fatalf("strategy %v seed %d: workers=8 ILOC differs from workers=1", strat, seed)
			}
			if !reflect.DeepEqual(rep1.PerFunc, rep8.PerFunc) {
				t.Errorf("strategy %v seed %d: per-func reports differ:\n seq=%+v\n par=%+v",
					strat, seed, rep1.PerFunc, rep8.PerFunc)
			}
			out1 := runEmit(t, p1, cfg.CCMBytes)
			out8 := runEmit(t, p8, cfg.CCMBytes)
			if !reflect.DeepEqual(out1, out8) {
				t.Errorf("strategy %v seed %d: emit traces differ", strat, seed)
			}
		}
	}
}

// TestCacheSecondCompileIsFullHit: an identical (program, Config) pair
// must be answered entirely from the cache — zero new misses — and
// produce byte-identical output.
func TestCacheSecondCompileIsFullHit(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := detConfig(strat)
		d := New(Options{})
		p1 := workload.RandomProgram(7)
		rep1 := mustCompile(t, d, p1, cfg)
		if rep1.ProgramCacheHit {
			t.Fatalf("strategy %v: cold compile reported a program cache hit", strat)
		}

		p2 := workload.RandomProgram(7)
		rep2 := mustCompile(t, d, p2, cfg)
		if !rep2.ProgramCacheHit {
			t.Fatalf("strategy %v: repeat compile missed the program cache", strat)
		}
		if got := rep2.Cache.Misses - rep1.Cache.Misses; got != 0 {
			t.Errorf("strategy %v: repeat compile had %d cache misses, want 0", strat, got)
		}
		if rep2.Cache.Hits <= rep1.Cache.Hits {
			t.Errorf("strategy %v: repeat compile recorded no cache hits", strat)
		}
		for name, fr := range rep2.PerFunc {
			if !fr.FrontCacheHit || !fr.BackCacheHit {
				t.Errorf("strategy %v: func %s not marked cached on repeat compile", strat, name)
			}
		}
		if p1.String() != p2.String() {
			t.Errorf("strategy %v: cached compile output differs from cold compile", strat)
		}
		if !reflect.DeepEqual(rep1.PerFunc, rep2.PerFunc) {
			// Hit flags differ by design; compare everything else.
			for name, fr1 := range rep1.PerFunc {
				fr2 := rep2.PerFunc[name]
				fr2.FrontCacheHit, fr2.BackCacheHit = fr1.FrontCacheHit, fr1.BackCacheHit
				if fr1 != fr2 {
					t.Errorf("strategy %v: report for %s differs on cached compile: %+v vs %+v",
						strat, name, fr1, fr2)
				}
			}
		}
	}
}

// TestCacheMissOnInstrChange: editing one instruction must miss the
// program cache (content addressing), while untouched functions still
// hit the per-function front cache.
func TestCacheMissOnInstrChange(t *testing.T) {
	d := New(Options{})
	cfg := detConfig(PostPassInterproc)

	build := func() *ir.Program { return workload.RandomProgram(11) }
	mustCompile(t, d, build(), cfg)

	p := build()
	// Perturb one immediate in main's entry block: loadi constants feed
	// the emit trace, so the change is semantically visible too.
	f := p.Func("main")
	mutated := false
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if !mutated && in.Op == ir.OpLoadI {
			in.Imm++
			mutated = true
		}
	})
	if !mutated {
		t.Fatal("no loadi found in main to mutate")
	}
	rep := mustCompile(t, d, p, cfg)
	if rep.ProgramCacheHit {
		t.Fatal("program cache hit despite a mutated instruction")
	}
	if fr := rep.PerFunc["main"]; fr.FrontCacheHit {
		t.Error("mutated function hit the front cache")
	}
	for name, fr := range rep.PerFunc {
		if name != "main" && !fr.FrontCacheHit {
			t.Errorf("untouched function %s missed the front cache", name)
		}
	}
}

// TestCacheMissOnConfigChange: every Config field must be part of the
// program key.
func TestCacheMissOnConfigChange(t *testing.T) {
	base := Config{Strategy: PostPassInterproc, CCMBytes: 512}
	variants := map[string]Config{
		"Strategy":          {Strategy: PostPass, CCMBytes: 512},
		"CCMBytes":          {Strategy: PostPassInterproc, CCMBytes: 1024},
		"IntRegs":           {Strategy: PostPassInterproc, CCMBytes: 512, IntRegs: 16},
		"FloatRegs":         {Strategy: PostPassInterproc, CCMBytes: 512, FloatRegs: 16},
		"DisableOptimizer":  {Strategy: PostPassInterproc, CCMBytes: 512, DisableOptimizer: true},
		"DisableCompaction": {Strategy: PostPassInterproc, CCMBytes: 512, DisableCompaction: true},
	}
	d := New(Options{})
	mustCompile(t, d, workload.RandomProgram(13), base)
	for field, cfg := range variants {
		rep := mustCompile(t, d, workload.RandomProgram(13), cfg)
		if rep.ProgramCacheHit {
			t.Errorf("changing Config.%s still hit the program cache", field)
		}
	}
	// Sanity: the unchanged config does hit.
	if rep := mustCompile(t, d, workload.RandomProgram(13), base); !rep.ProgramCacheHit {
		t.Error("identical recompile missed after variant sweeps")
	}
}

// TestCacheEvictionBound: the cache never exceeds its entry bound and
// counts evictions; correctness is unaffected.
func TestCacheEvictionBound(t *testing.T) {
	const maxEntries = 8
	d := New(Options{Cache: NewCache(maxEntries)})
	cfg := detConfig(NoCCM)
	for seed := int64(1); seed <= 10; seed++ {
		mustCompile(t, d, workload.RandomProgram(seed), cfg)
		if n := d.Cache().Len(); n > maxEntries {
			t.Fatalf("cache holds %d entries, bound is %d", n, maxEntries)
		}
	}
	st := d.Cache().Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions with a 8-entry cache over 10 programs")
	}
	// Evicted artifacts must simply be recomputed, not corrupted.
	p1 := workload.RandomProgram(1)
	d2 := New(Options{DisableCache: true})
	p2 := workload.RandomProgram(1)
	mustCompile(t, d, p1, cfg)
	mustCompile(t, d2, p2, cfg)
	if p1.String() != p2.String() {
		t.Error("post-eviction compile differs from uncached compile")
	}
}

// TestFrontArtifactSharedAcrossStrategies: the front stage is identical
// for the baseline and the post-pass strategies, so sweeping strategies
// over one program reuses the optimize+allocate work.
func TestFrontArtifactSharedAcrossStrategies(t *testing.T) {
	d := New(Options{})
	mustCompile(t, d, workload.RandomProgram(17), detConfig(NoCCM))
	rep := mustCompile(t, d, workload.RandomProgram(17), detConfig(PostPassInterproc))
	if rep.ProgramCacheHit {
		t.Fatal("different strategy unexpectedly hit the program cache")
	}
	for name, fr := range rep.PerFunc {
		if !fr.FrontCacheHit {
			t.Errorf("func %s missed the front cache across a strategy change", name)
		}
	}
}

// TestProgramArtifactSharesFrozenFuncs: a program artifact holds the
// functions its compile ended with by reference, the frozen front and
// back artifacts it was served included. A DiffCheck change
// misses the program tier, but every front and back key hits, so the
// second program artifact must hold the back artifacts' pointers.
func TestProgramArtifactSharesFrozenFuncs(t *testing.T) {
	const seed = 23
	d := New(Options{})
	cfg := detConfig(PostPassInterproc).withDefaults()
	mustCompile(t, d, workload.RandomProgram(seed), cfg)

	cfg.DiffCheck = DiffFinal
	p := workload.RandomProgram(seed)
	key := programKey(programDigest(p, nil), cfg)
	rep := mustCompile(t, d, p, cfg)
	if rep.ProgramCacheHit {
		t.Fatal("a DiffCheck change hit the program tier")
	}
	v, ok := d.Cache().get(key, diskKindProgramV2, nil)
	if !ok {
		t.Fatal("the checked compile stored no program artifact")
	}
	art := v.(*programArtifact)
	for i, f := range p.Funcs {
		if !rep.PerFunc[f.Name].BackCacheHit {
			t.Errorf("%s missed the back tier", f.Name)
		}
		if art.funcs[i] != f {
			t.Errorf("program artifact holds a copy of %s's back artifact, not the artifact", f.Name)
		}
	}
}

// TestConcurrentCompilesShareArtifacts: compiles racing on one cached
// driver share frozen front, back and program artifacts by reference,
// and each stores a program artifact that holds the ones it was served.
// Every output is byte-identical to a solo uncached compile. Under -race
// this is the pipeline's own race workload for shared artifacts.
func TestConcurrentCompilesShareArtifacts(t *testing.T) {
	const seed = 29
	base := detConfig(PostPassInterproc)
	cfgs := []Config{
		base,
		with(base, func(c *Config) { c.DiffCheck = DiffFinal }),
		with(base, func(c *Config) { c.DiffCheck, c.DiffVectors = DiffFinal, 5 }),
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		p := workload.RandomProgram(seed)
		mustCompile(t, New(Options{DisableCache: true}), p, cfg)
		want[i] = p.String()
	}
	d := New(Options{Workers: 2})
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				p := workload.RandomProgram(seed)
				if _, err := d.Compile(p, cfg); err != nil {
					t.Errorf("%v/%d vectors: %v", cfg.DiffCheck, cfg.DiffVectors, err)
				} else if p.String() != want[i] {
					t.Errorf("%v/%d vectors: concurrent compile differs from a solo one", cfg.DiffCheck, cfg.DiffVectors)
				}
			}(i, cfg)
		}
	}
	wg.Wait()
}

// TestCompileLeavesInputUntouched: a compile never writes the functions
// it is given. Every input function prints as before the compile; on
// success p.Funcs holds none of them, and on error p is exactly as
// given. The rows cover every strategy, oracle mode and Strict setting,
// uncached and on a cached driver compiling twice (a miss, then a program
// hit), plus recompiles after a front fault and after a bisected
// miscompile, and a strict fault that fails the compile.
func TestCompileLeavesInputUntouched(t *testing.T) {
	type row struct {
		name    string
		cfg     Config
		cached  bool
		wantErr bool
	}
	var rows []row
	for _, strat := range allStrategies {
		for _, dc := range []DiffCheck{DiffOff, DiffFinal} {
			for _, strict := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					cfg := with(detConfig(strat), func(c *Config) { c.DiffCheck, c.Strict = dc, strict })
					name := fmt.Sprintf("%v/%v/strict=%v/cached=%v", strat, dc, strict, cached)
					rows = append(rows, row{name, cfg, cached, false})
				}
			}
		}
	}
	fault := with(detConfig(PostPassInterproc), func(c *Config) {
		c.InjectFront = []InjectedPass{panicOn("main", "exp-bad")}
	})
	miscompile := with(detConfig(PostPassInterproc), func(c *Config) {
		c.DiffCheck = DiffFinal
		c.InjectFront = []InjectedPass{miscompileOn("main", "exp-dup")}
	})
	rows = append(rows,
		row{"recompile after a front fault", fault, false, false},
		row{"recompile after a bisected miscompile", miscompile, false, false},
		row{"strict front fault", with(fault, func(c *Config) { c.Strict = true }), false, true},
	)

	for _, r := range rows {
		d := New(Options{DisableCache: !r.cached})
		compiles := 1
		if r.cached {
			compiles = 2
		}
		for n := 1; n <= compiles; n++ {
			p := workload.RandomProgram(13)
			in := append([]*ir.Func(nil), p.Funcs...)
			inputs := map[*ir.Func]bool{}
			texts := make([]string, len(in))
			for i, f := range in {
				inputs[f] = true
				texts[i] = f.String()
			}
			whole := p.String()

			rep, err := d.Compile(p, r.cfg)
			for i, f := range in {
				if f.String() != texts[i] {
					t.Errorf("%s, compile %d: input function %s was rewritten", r.name, n, f.Name)
				}
			}
			if r.wantErr {
				if err == nil {
					t.Errorf("%s: compile succeeded, want an error", r.name)
				}
				if !slices.Equal(p.Funcs, in) || p.String() != whole {
					t.Errorf("%s: the failed compile changed p", r.name)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, compile %d: %v", r.name, n, err)
				continue
			}
			if n == 2 && !rep.ProgramCacheHit {
				t.Errorf("%s: the repeat compile missed the program tier", r.name)
			}
			for _, f := range p.Funcs {
				if inputs[f] {
					t.Errorf("%s, compile %d: p.Funcs still holds input function %s", r.name, n, f.Name)
				}
			}
		}
	}
}

// TestReportShape: pass stats are present, ordered, and measure real
// work; the report marshals to JSON.
func TestReportShape(t *testing.T) {
	d := New(Options{})
	cfg := Config{Strategy: PostPassInterproc, CCMBytes: 512}
	rep := mustCompile(t, d, workload.RandomProgram(19), cfg)

	want := []string{PassOptimize, PassRegalloc, PassPostPass, PassCompact, PassVerify}
	if len(rep.Passes) != len(want) {
		t.Fatalf("got %d passes, want %d (%+v)", len(rep.Passes), len(want), rep.Passes)
	}
	for i, name := range want {
		ps := rep.Passes[i]
		if ps.Name != name {
			t.Errorf("pass %d is %q, want %q", i, ps.Name, name)
		}
		if ps.Runs == 0 {
			t.Errorf("pass %q recorded no runs", name)
		}
		if ps.InstrsBefore == 0 || ps.InstrsAfter == 0 {
			t.Errorf("pass %q recorded no instruction counts", name)
		}
	}
	if rep.WallNanos <= 0 {
		t.Error("report has no wall time")
	}
	if len(rep.PerFunc) == 0 {
		t.Error("report has no per-function entries")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}

	cum := d.Metrics()
	if cum.Compiles != 1 || len(cum.Passes) == 0 {
		t.Errorf("cumulative metrics incomplete: %+v", cum)
	}
}

// TestConfigValidation mirrors the facade's contract.
func TestConfigValidation(t *testing.T) {
	d := New(Options{})
	if _, err := d.Compile(workload.RandomProgram(1), Config{Strategy: PostPass}); err == nil {
		t.Error("PostPass without CCMBytes should fail")
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted junk")
	}
	for _, s := range allStrategies {
		name := s.String()
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
}

// TestConfigRegisterCounts: a negative register count, or counts summing
// (after defaults) past ir.MaxRegs, fail validation before any pass runs.
func TestConfigRegisterCounts(t *testing.T) {
	d := New(Options{Workers: 1})
	for _, tc := range []struct {
		name          string
		ints, floats  int
		wantErrSubstr string
	}{
		{"defaults", 0, 0, ""},
		{"reduced", 6, 4, ""},
		{"negative int", -1, 0, "register counts must be >= 0"},
		{"negative float", 0, -3, "register counts must be >= 0"},
		{"oversized int", 1 << 22, 0, "IntRegs + FloatRegs must be <="},
		{"oversized float over default int", 0, ir.MaxRegs - 31, "IntRegs + FloatRegs must be <="},
		{"sum past MaxInt", math.MaxInt, DefaultRegs, "IntRegs + FloatRegs must be <="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := d.Compile(workload.RandomProgram(1), Config{Strategy: NoCCM, IntRegs: tc.ints, FloatRegs: tc.floats})
			switch {
			case tc.wantErrSubstr == "" && err != nil:
				t.Fatalf("compile failed: %v", err)
			case tc.wantErrSubstr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErrSubstr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErrSubstr)
			}
		})
	}
}

// TestConfigCCMBytes: a negative, unaligned or over-cap CCM size fails
// validation under every strategy, with or without the oracle, before
// any pass or simulator run.
func TestConfigCCMBytes(t *testing.T) {
	d := New(Options{Workers: 1})
	for _, strat := range []Strategy{NoCCM, PostPass, Integrated} {
		for _, diff := range []DiffCheck{DiffOff, DiffFinal} {
			for _, tc := range []struct {
				bytes int64
				ok    bool
			}{
				{512, true},
				{-8, false},
				{12, false},
				{1<<27 + 8, false},
				{1 << 62, false},
			} {
				_, err := d.Compile(workload.RandomProgram(3), Config{Strategy: strat, CCMBytes: tc.bytes, DiffCheck: diff})
				switch {
				case tc.ok && err != nil:
					t.Errorf("%v %v CCMBytes %d: %v", strat, diff, tc.bytes, err)
				case !tc.ok && (err == nil || !strings.Contains(err.Error(), "CCMBytes")):
					t.Errorf("%v %v CCMBytes %d: error %v, want a CCMBytes validation error", strat, diff, tc.bytes, err)
				}
			}
		}
	}
}

// TestWorkloadSuiteThroughPipeline compiles the full named-routine suite
// through the driver once per strategy, sharing one cache, as the
// experiment harness does — an end-to-end exercise of cache sharing
// between real kernels rather than random programs.
func TestWorkloadSuiteThroughPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite compile in -short mode")
	}
	d := New(Options{Workers: 4})
	routines := workload.All()[:12]
	for _, strat := range []Strategy{NoCCM, PostPassInterproc} {
		cfg := detConfig(strat)
		for _, r := range routines {
			p, err := r.Build()
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			rep, err := d.Compile(p, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", r.Name, strat, err)
			}
			if _, ok := rep.PerFunc[r.Name]; !ok {
				t.Errorf("%s/%v: routine missing from report", r.Name, strat)
			}
		}
	}
	st := d.Cache().Stats()
	if st.Hits == 0 {
		t.Error("suite sweep recorded no cache hits (front artifacts should be shared)")
	}
}
