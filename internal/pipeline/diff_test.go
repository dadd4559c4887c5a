package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/repro"
	"ccmem/internal/workload"
)

// dupFirstEmit duplicates the first emit instruction of the named
// function: the canonical silent miscompile. The result verifies, runs,
// and crashes nothing — the trace just grows by one value, which only
// differential execution can see.
func dupFirstEmit(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpEmit {
				dup := b.Instrs[i]
				b.Instrs = append(b.Instrs[:i+1], append([]ir.Instr{dup}, b.Instrs[i+1:]...)...)
				return true
			}
		}
	}
	return false
}

// miscompileOn returns an injected pass that silently miscompiles the
// named function.
func miscompileOn(name, passName string) InjectedPass {
	return InjectedPass{Name: passName, Fn: func(_ context.Context, f *ir.Func) error {
		if f.Name == name {
			dupFirstEmit(f)
		}
		return nil
	}}
}

// diffProgram is a small deterministic program whose main trace is a
// single computed value, so any emit duplication is observable.
func diffProgram(t *testing.T) *ir.Program {
	t.Helper()
	p, err := ir.Parse(`func helper(r0) int {
entry:
	r1 = loadi 3
	r2 = mul r0, r1
	ret r2
}
func main() {
entry:
	r0 = loadi 5
	r1 = call helper(r0)
	emit r1
	ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMiscompileDetectedAndQuarantined is the tentpole acceptance walk:
// an injected pass that silently duplicates an emit is (a) detected by
// the differential oracle, (b) attributed to itself by snapshot
// bisection, (c) quarantined by forcing its function down the
// degradation ladder so the shipped program matches the input, and
// (d) captured as a replayable miscompile bundle — identically for every
// strategy.
func TestMiscompileDetectedAndQuarantined(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := detConfig(strat)
		cfg.DiffCheck = DiffFinal
		cfg.InjectFront = []InjectedPass{miscompileOn("main", "exp-dup")}
		cfg.ReproDir = t.TempDir()

		p := diffProgram(t)
		want := runEmit(t, p.Clone(), 0) // input semantics: the oracle ground truth

		d := New(Options{DisableCache: true})
		rep, err := d.Compile(p, cfg)
		if err != nil {
			t.Fatalf("%v: compile failed despite quarantine: %v", strat, err)
		}
		if rep.Divergences == 0 {
			t.Fatalf("%v: silent miscompile not detected", strat)
		}
		if rep.DivergentPasses["exp-dup"] == 0 {
			t.Errorf("%v: bisection attributed to %v, want exp-dup", strat, rep.DivergentPasses)
		}
		fr := rep.PerFunc["main"]
		if fr.Degraded != "no-opt" {
			t.Errorf("%v: main degraded to %q, want no-opt", strat, fr.Degraded)
		}
		if fr.FailedPass != "exp-dup" || !strings.Contains(fr.Error, "miscompile") {
			t.Errorf("%v: per-func attribution = %q/%q", strat, fr.FailedPass, fr.Error)
		}
		if rep.DiffFuncsChecked == 0 || rep.DiffRuns == 0 {
			t.Errorf("%v: oracle counters empty: %+v", strat, rep)
		}
		// The quarantined program must compute exactly the input's trace.
		got := runEmit(t, p, cfg.CCMBytes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: shipped program still diverges: %v vs %v", strat, got, want)
		}
		// The divergence is on disk as a replayable miscompile bundle.
		var mb *repro.Bundle
		for _, path := range rep.Repros {
			b, err := repro.Load(path)
			if err != nil {
				t.Fatalf("%v: loading bundle: %v", strat, err)
			}
			if b.Kind == repro.KindMiscompile {
				mb = b
			}
		}
		if mb == nil {
			t.Fatalf("%v: no miscompile bundle written (%v)", strat, rep.Repros)
		}
		if mb.Func != "main" || mb.Pass != "exp-dup" || mb.Post == "" || mb.Entry == "" {
			t.Errorf("%v: bundle misattributed: func=%q pass=%q entry=%q", strat, mb.Func, mb.Pass, mb.Entry)
		}
		if err := Replay(mb); err != nil {
			t.Errorf("%v: miscompile bundle does not re-confirm: %v", strat, err)
		}
	}
}

// TestMiscompileStrict: in strict mode the divergence fails the compile
// with a structured, attributed *MiscompileError instead of degrading.
func TestMiscompileStrict(t *testing.T) {
	cfg := detConfig(PostPassInterproc)
	cfg.DiffCheck = DiffFinal
	cfg.Strict = true
	cfg.InjectFront = []InjectedPass{miscompileOn("main", "exp-dup")}

	d := New(Options{DisableCache: true})
	_, err := d.Compile(diffProgram(t), cfg)
	var me *MiscompileError
	if !errors.As(err, &me) {
		t.Fatalf("strict compile returned %v, want *MiscompileError", err)
	}
	if me.Pass != "exp-dup" || me.Func != "main" || me.Divergence == nil {
		t.Errorf("bad attribution: %+v", me)
	}
}

// TestFaultCountedOnceAcrossRecompiles: a front fault in helper and a
// divergence in main take two recompiles, but the fault is counted once,
// because every recompile starts helper at its quarantined rung.
func TestFaultCountedOnceAcrossRecompiles(t *testing.T) {
	cfg := detConfig(PostPassInterproc)
	cfg.DiffCheck = DiffFinal
	cfg.InjectFront = []InjectedPass{panicOn("helper", "exp-bad"), miscompileOn("main", "exp-dup")}
	rep := mustCompile(t, New(Options{DisableCache: true}), diffProgram(t), cfg)
	if rep.Failures != 1 {
		t.Errorf("failures = %d, want 1", rep.Failures)
	}
	if fr := rep.PerFunc["helper"]; fr.Degraded != "no-opt" || fr.FailedPass != "exp-bad" || fr.Attempts != 2 {
		t.Errorf("helper: degraded=%q pass=%q attempts=%d, want no-opt/exp-bad/2", fr.Degraded, fr.FailedPass, fr.Attempts)
	}
	if fr := rep.PerFunc["main"]; fr.Degraded != "no-opt" || fr.FailedPass != "exp-dup" || fr.Attempts != 1 {
		t.Errorf("main: degraded=%q pass=%q attempts=%d, want no-opt/exp-dup/1", fr.Degraded, fr.FailedPass, fr.Attempts)
	}
}

// TestBarrierMiscompileQuarantined: a miscompile introduced inside the
// interprocedural barrier bisects to the postpass and is quarantined by
// excluding exactly that function from CCM promotion.
func TestBarrierMiscompileQuarantined(t *testing.T) {
	p := diffProgram(t)
	want := runEmit(t, p.Clone(), 0)

	cfg := detConfig(PostPassInterproc)
	cfg.DiffCheck = DiffFinal
	cfg.passHook = func(pass, name string) {
		if pass == PassPostPass && name == "main" {
			dupFirstEmit(p.Func("main"))
		}
	}

	d := New(Options{DisableCache: true})
	rep, err := d.Compile(p, cfg)
	if err != nil {
		t.Fatalf("compile failed despite quarantine: %v", err)
	}
	if rep.Divergences == 0 {
		t.Fatal("barrier miscompile not detected")
	}
	if rep.DivergentPasses[PassPostPass] == 0 {
		t.Errorf("bisection attributed to %v, want postpass", rep.DivergentPasses)
	}
	if fr := rep.PerFunc["main"]; fr.Degraded != "no-ccm" {
		t.Errorf("main degraded to %q, want no-ccm", fr.Degraded)
	}
	if got := runEmit(t, p, cfg.CCMBytes); !reflect.DeepEqual(got, want) {
		t.Errorf("shipped program still diverges: %v vs %v", got, want)
	}
}

// TestDivergenceBehindWarmCache: a divergence found in an attempt served
// by warm front and back artifacts is reproduced uncached and attributed
// exactly as on a driver with no cache. An unchecked compile warms the
// per-function tiers; a DiffFinal compile of the same input, whose
// program key differs but whose front keys do not, then has the barrier
// duplicate main's emit.
func TestDivergenceBehindWarmCache(t *testing.T) {
	compile := func(d *Driver, strict bool) (*ir.Program, *Report, error) {
		p := diffProgram(t)
		cfg := detConfig(PostPassInterproc)
		cfg.DiffCheck = DiffFinal
		cfg.Strict = strict
		cfg.passHook = func(pass, name string) {
			if pass == PassPostPass && name == "main" {
				dupFirstEmit(p.Func("main"))
			}
		}
		rep, err := d.Compile(p, cfg)
		return p, rep, err
	}
	warm := func() *Driver {
		d := New(Options{})
		mustCompile(t, d, diffProgram(t), detConfig(PostPassInterproc))
		return d
	}

	d := warm()
	got, rep, err := compile(d, false)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRep, err := compile(New(Options{DisableCache: true}), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergences != 1 || !reflect.DeepEqual(rep.DivergentPasses, map[string]int64{PassPostPass: 1}) {
		t.Errorf("divergences = %d %v, want 1 at postpass", rep.Divergences, rep.DivergentPasses)
	}
	if got.String() != want.String() {
		t.Errorf("shipped ILOC differs from the uncached driver's:\n%s\nvs\n%s", got, want)
	}
	if !rep.PerFunc["helper"].FrontCacheHit {
		t.Error("helper missed the warm front tier; the test exercises nothing")
	}
	for name, fr := range rep.PerFunc {
		fr.FrontCacheHit, fr.BackCacheHit = false, false
		if wfr := wantRep.PerFunc[name]; fr != wfr {
			t.Errorf("%s: report %+v, want %+v", name, fr, wfr)
		}
	}
	if fr := rep.PerFunc["main"]; fr.Degraded != "no-ccm" || fr.FailedPass != PassPostPass {
		t.Errorf("main: degraded %q after %q, want no-ccm after postpass", fr.Degraded, fr.FailedPass)
	}
	if _, again, err := compile(d, false); err != nil || again.ProgramCacheHit {
		t.Errorf("repeat compile: program hit %v, err %v; a diverging compile must store no program artifact", again != nil && again.ProgramCacheHit, err)
	}

	_, _, err = compile(warm(), true)
	var me *MiscompileError
	if !errors.As(err, &me) {
		t.Fatalf("strict compile returned %v, want *MiscompileError", err)
	}
	if me.Pass != PassPostPass || me.Func != "main" {
		t.Errorf("strict attribution: pass %q, func %q; want postpass/main", me.Pass, me.Func)
	}
}

// TestDiffCheckCleanSuite is the false-positive guard: across every
// strategy and the random-program suite, an honest compile produces zero
// divergences and ships byte-identical code to an unchecked compile.
func TestDiffCheckCleanSuite(t *testing.T) {
	for _, strat := range allStrategies {
		for seed := int64(1); seed <= detSeeds; seed++ {
			plain := workload.RandomProgram(seed)
			d0 := New(Options{DisableCache: true})
			mustCompile(t, d0, plain, detConfig(strat))

			checked := workload.RandomProgram(seed)
			cfg := detConfig(strat)
			cfg.DiffCheck = DiffFinal
			d1 := New(Options{DisableCache: true})
			rep := mustCompile(t, d1, checked, cfg)

			if rep.Divergences != 0 {
				t.Errorf("strategy %v seed %d: false positive: %+v %v",
					strat, seed, rep.DivergentPasses, rep.PerFunc)
			}
			if rep.DiffFuncsChecked == 0 || rep.DiffRuns == 0 {
				t.Errorf("strategy %v seed %d: oracle ran nothing", strat, seed)
			}
			if checked.String() != plain.String() {
				t.Errorf("strategy %v seed %d: diff checking changed the shipped code", strat, seed)
			}
		}
	}
}

// TestDiffCheckDeterminism: with the oracle on and a miscompiling pass
// injected, workers=8 produces byte-identical output, per-func reports,
// and oracle counters to workers=1 — detection, bisection, and
// quarantine all run outside the worker pool.
func TestDiffCheckDeterminism(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := detConfig(strat)
		cfg.DiffCheck = DiffFinal
		cfg.InjectFront = []InjectedPass{miscompileOn("main", "exp-dup")}

		p1 := diffProgram(t)
		p8 := diffProgram(t)
		seq := New(Options{Workers: 1, DisableCache: true})
		par := New(Options{Workers: 8, DisableCache: true})

		rep1 := mustCompile(t, seq, p1, cfg)
		rep8 := mustCompile(t, par, p8, cfg)

		if p1.String() != p8.String() {
			t.Errorf("strategy %v: workers=8 ILOC differs from workers=1", strat)
		}
		if !reflect.DeepEqual(rep1.PerFunc, rep8.PerFunc) {
			t.Errorf("strategy %v: per-func reports differ:\n seq=%+v\n par=%+v", strat, rep1.PerFunc, rep8.PerFunc)
		}
		c1 := [4]int64{rep1.DiffFuncsChecked, rep1.DiffRuns, rep1.DiffInconclusive, rep1.Divergences}
		c8 := [4]int64{rep8.DiffFuncsChecked, rep8.DiffRuns, rep8.DiffInconclusive, rep8.Divergences}
		if c1 != c8 || !reflect.DeepEqual(rep1.DivergentPasses, rep8.DivergentPasses) {
			t.Errorf("strategy %v: oracle counters differ: %v/%v vs %v/%v",
				strat, c1, rep1.DivergentPasses, c8, rep8.DivergentPasses)
		}
		if rep1.Degraded != rep8.Degraded || rep1.Failures != rep8.Failures {
			t.Errorf("strategy %v: fault counters differ: %d/%d vs %d/%d",
				strat, rep1.Degraded, rep1.Failures, rep8.Degraded, rep8.Failures)
		}
	}
}

// TestDiffCheckProgramCache: a divergence-free checked compile is served
// from the whole-program cache on repeat, and checked/unchecked configs
// never share entries.
func TestDiffCheckProgramCache(t *testing.T) {
	cfg := detConfig(PostPass)
	cfg.DiffCheck = DiffFinal
	d := New(Options{})

	rep1 := mustCompile(t, d, workload.RandomProgram(5), cfg)
	if rep1.ProgramCacheHit {
		t.Fatal("cold compile reported a program cache hit")
	}
	rep2 := mustCompile(t, d, workload.RandomProgram(5), cfg)
	if !rep2.ProgramCacheHit {
		t.Fatal("repeat checked compile missed the program cache")
	}

	off := detConfig(PostPass)
	rep3 := mustCompile(t, d, workload.RandomProgram(5), off)
	if rep3.ProgramCacheHit {
		t.Fatal("unchecked compile was served a checked compile's artifact")
	}
}
