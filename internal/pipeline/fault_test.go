package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/repro"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// faultConfig is the common non-strict fault-test configuration.
func faultConfig(strat Strategy) Config {
	cfg := detConfig(strat)
	cfg.VerifyPasses = true
	return cfg
}

// TestPanicPassIsolated: a panicking pass is (a) isolated to its
// function, (b) attributed to the correct pass, (c) recovered via the
// degradation ladder with the program still compiling end-to-end, and
// (d) captured as a replayable repro bundle — the injected-fault
// acceptance walk for the "pass that panics" case.
func TestPanicPassIsolated(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := faultConfig(strat)
		cfg.passHook = hookFault(PassOptimize, "main")
		cfg.ReproDir = t.TempDir()

		p := workload.RandomProgram(3)
		want := mustCompileClean(t, p.Clone())

		d := New(Options{DisableCache: true})
		rep, err := d.Compile(p, cfg)
		if err != nil {
			t.Fatalf("strategy %v: compile failed despite degradation ladder: %v", strat, err)
		}
		fr := rep.PerFunc["main"]
		if fr.Degraded != "no-opt" {
			t.Errorf("strategy %v: main degraded to %q, want no-opt", strat, fr.Degraded)
		}
		if fr.FailedPass != PassOptimize {
			t.Errorf("strategy %v: fault attributed to %q, want optimize", strat, fr.FailedPass)
		}
		if fr.Attempts != 2 {
			t.Errorf("strategy %v: main took %d attempts, want 2", strat, fr.Attempts)
		}
		if rep.Failures != 1 || rep.Degraded != 1 {
			t.Errorf("strategy %v: failures=%d degraded=%d, want 1/1", strat, rep.Failures, rep.Degraded)
		}
		for name, ofr := range rep.PerFunc {
			if name != "main" && ofr.Degraded != "" {
				t.Errorf("strategy %v: fault leaked into %s (degraded %q)", strat, name, ofr.Degraded)
			}
		}
		// The degraded program must still run and emit the oracle trace.
		got := runEmit(t, p, cfg.CCMBytes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("strategy %v: degraded program diverges from oracle", strat)
		}
		// The failure is on disk as a loadable bundle naming pass & func.
		if len(rep.Repros) != 1 {
			t.Fatalf("strategy %v: %d repro bundles, want 1 (%v)", strat, len(rep.Repros), rep.Repros)
		}
		b, err := repro.Load(rep.Repros[0])
		if err != nil {
			t.Fatalf("strategy %v: loading bundle: %v", strat, err)
		}
		if b.Func != "main" || b.Pass != PassOptimize || b.Kind != repro.KindCompile {
			t.Errorf("strategy %v: bundle misattributed: func=%q pass=%q kind=%q", strat, b.Func, b.Pass, b.Kind)
		}
		if !strings.Contains(b.Stack, "panic") && !strings.Contains(b.Stack, "goroutine") {
			t.Errorf("strategy %v: bundle carries no stack", strat)
		}
		if b.Program == "" {
			t.Errorf("strategy %v: bundle carries no input program", strat)
		}
		// No bundle carries the test hook, so the replay compiles the
		// bundled input without the fault: it must pass now.
		if err := Replay(b); err != nil {
			t.Errorf("strategy %v: replay without the hooked fault should succeed: %v", strat, err)
		}
	}
}

// mustCompileClean compiles p with the plain baseline config and returns
// its emit trace — the semantic oracle degraded compiles are checked
// against.
func mustCompileClean(t *testing.T, p *ir.Program) []sim.Value {
	t.Helper()
	d := New(Options{DisableCache: true})
	if _, err := d.Compile(p, Config{}); err != nil {
		t.Fatalf("oracle compile: %v", err)
	}
	return runEmit(t, p, 0)
}

// TestPanicPassStrict: in strict mode the same fault fails the compile
// with a structured *CompileError carrying pass, function, and stack.
func TestPanicPassStrict(t *testing.T) {
	cfg := faultConfig(PostPassInterproc)
	cfg.Strict = true
	cfg.passHook = hookFault(PassOptimize, "main")

	d := New(Options{DisableCache: true})
	_, err := d.Compile(workload.RandomProgram(3), cfg)
	var cerr *CompileError
	if !errors.As(err, &cerr) {
		t.Fatalf("strict compile returned %v, want *CompileError", err)
	}
	if cerr.Pass != PassOptimize || cerr.Func != "main" || !cerr.Panicked {
		t.Errorf("bad attribution: %+v", cerr)
	}
	if len(cerr.Stack) == 0 {
		t.Error("CompileError has no panic stack")
	}
	if !strings.Contains(cerr.Error(), PassOptimize) || !strings.Contains(cerr.Error(), "main") {
		t.Errorf("error text lacks attribution: %v", cerr)
	}
}

// TestInvalidIRPassAttributed: a pass that emits structurally-plausible
// but semantically broken IR (a use of a never-defined register) is
// caught by the liveness-consistency checkpoint right after it runs, not
// passes later — the "pass that emits invalid IR" acceptance case.
func TestInvalidIRPassAttributed(t *testing.T) {
	bad := func(_ context.Context, pass string, f *ir.Func) {
		if pass != PassOptimize || f.Name != "main" {
			return
		}
		// Plain ir.VerifyFunc cannot see this: the register is declared
		// and classed, it just never gets a value.
		ghost := f.NewReg(ir.ClassInt, "ghost")
		entry := f.Entry()
		use := ir.Instr{Op: ir.OpEmit, Dst: ir.NoReg, Args: []ir.Reg{ghost}}
		entry.Instrs = append([]ir.Instr{use}, entry.Instrs...)
	}
	cfg := faultConfig(PostPassInterproc)
	cfg.passHook = bad

	p := workload.RandomProgram(7)
	want := mustCompileClean(t, p.Clone())

	d := New(Options{DisableCache: true})
	rep, err := d.Compile(p, cfg)
	if err != nil {
		t.Fatalf("compile failed despite ladder: %v", err)
	}
	fr := rep.PerFunc["main"]
	if fr.FailedPass != PassOptimize {
		t.Errorf("invalid IR attributed to %q, want optimize", fr.FailedPass)
	}
	if fr.Degraded != "no-opt" {
		t.Errorf("main degraded to %q, want no-opt", fr.Degraded)
	}
	if !strings.Contains(fr.Error, "use before def") {
		t.Errorf("checkpoint error is %q, want a use-before-def diagnosis", fr.Error)
	}
	if got := runEmit(t, p, cfg.CCMBytes); !reflect.DeepEqual(got, want) {
		t.Error("degraded program diverges from oracle")
	}

	// Without per-pass verification the same breakage sails through to
	// the final structural verify — which cannot see it either. The
	// checkpoint is what catches it.
	cfg2 := detConfig(NoCCM)
	cfg2.passHook = bad
	rep2, err := New(Options{DisableCache: true}).Compile(workload.RandomProgram(7), cfg2)
	if err != nil {
		t.Fatalf("unverified compile: %v", err)
	}
	if rep2.PerFunc["main"].Degraded != "" {
		t.Error("without VerifyPasses the invalid IR should go undetected (that is the point of checkpoints)")
	}
}

// TestInputFaultAttributedToInput: a broken invariant already present in
// the input is blamed on "input", not on the first pass to run after it.
func TestInputFaultAttributedToInput(t *testing.T) {
	src := `func main() {
entry:
	r0 = loadi 1
	r1 = add r0, r2
	emit r1
	ret
}
`
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{VerifyPasses: true, ReproDir: t.TempDir()}
	d := New(Options{DisableCache: true})
	_, err = d.Compile(p, cfg)
	var cerr *CompileError
	if !errors.As(err, &cerr) {
		t.Fatalf("compile of use-before-def input returned %v, want *CompileError", err)
	}
	if cerr.Pass != PassInput {
		t.Errorf("fault attributed to %q, want %q", cerr.Pass, PassInput)
	}

	// The ladder cannot fix broken input, but every attempt left a
	// replayable bundle behind; the replay reproduces the fault.
	bundles, err := repro.LoadDir(cfg.ReproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) == 0 {
		t.Fatal("no repro bundles written for input fault")
	}
	rerr := Replay(bundles[0])
	var rcerr *CompileError
	if !errors.As(rerr, &rcerr) || rcerr.Pass != PassInput {
		t.Errorf("replay did not reproduce the input fault: %v", rerr)
	}
}

// TestReplayRemovedConfigField: compile bundles written while Config
// had a per-function timeout carry "FuncTimeout" in their config. Such a
// bundle still replays: the rest of its config decodes and its fault
// reproduces.
func TestReplayRemovedConfigField(t *testing.T) {
	b := &repro.Bundle{
		Version: repro.Version,
		Kind:    repro.KindCompile,
		Func:    "main",
		Pass:    PassInput,
		Program: "func main() {\nentry:\n\tr0 = loadi 1\n\tr1 = add r0, r2\n\temit r1\n\tret\n}\n",
		Config:  json.RawMessage(`{"Strategy":2,"CCMBytes":512,"VerifyPasses":true,"FuncTimeout":5000000000}`),
	}
	var cerr *CompileError
	if err := Replay(b); !errors.As(err, &cerr) || cerr.Pass != PassInput || cerr.Func != "main" {
		t.Fatalf("replay: %v, want the input fault on main reproduced", err)
	}
}

// TestPostPassFaultQuarantinesFunction: a fault inside the sequential
// interprocedural barrier is attributed to the function being processed,
// which alone loses its CCM promotion; the rest of the program still
// promotes.
func TestPostPassFaultQuarantinesFunction(t *testing.T) {
	p := workload.RandomProgram(4) // seed 4 has leaf functions
	var victim string
	for _, f := range p.Funcs {
		if f.Name != "main" {
			victim = f.Name
			break
		}
	}
	if victim == "" {
		t.Skip("seed produced no leaf functions")
	}
	want := mustCompileClean(t, p.Clone())

	cfg := detConfig(PostPassInterproc)
	cfg.ReproDir = t.TempDir()
	cfg.passHook = hookFault(PassPostPass, victim)
	d := New(Options{DisableCache: true})
	rep, err := d.Compile(p, cfg)
	if err != nil {
		t.Fatalf("compile failed despite quarantine: %v", err)
	}
	fr := rep.PerFunc[victim]
	if fr.Degraded != "no-ccm" || fr.FailedPass != PassPostPass {
		t.Errorf("victim not quarantined: degraded=%q pass=%q", fr.Degraded, fr.FailedPass)
	}
	if fr.PromotedWebs != 0 {
		t.Errorf("quarantined function still promoted %d webs", fr.PromotedWebs)
	}
	for name, ofr := range rep.PerFunc {
		if name != victim && ofr.Degraded != "" {
			t.Errorf("quarantine leaked into %s (%q)", name, ofr.Degraded)
		}
	}
	if rep.Failures != 1 {
		t.Errorf("failures=%d, want 1", rep.Failures)
	}
	if len(rep.Repros) != 1 {
		t.Errorf("%d repro bundles, want 1", len(rep.Repros))
	}
	if got := runEmit(t, p, cfg.CCMBytes); !reflect.DeepEqual(got, want) {
		t.Error("quarantined program diverges from oracle")
	}

	// Strict mode: same fault, structured error naming the victim.
	cfg.Strict = true
	cfg.ReproDir = ""
	_, err = New(Options{DisableCache: true}).Compile(workload.RandomProgram(4), cfg)
	var cerr *CompileError
	if !errors.As(err, &cerr) || cerr.Pass != PassPostPass || cerr.Func != victim {
		t.Errorf("strict barrier fault: got %v, want *CompileError{postpass, %s}", err, victim)
	}
}

// TestCancellationNoGoroutineLeak: cancelling the compile context stops a
// deliberately slow pass mid-pipeline; the error wraps context.Canceled
// and no worker goroutines outlive the call.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	cfg := detConfig(NoCCM)
	cfg.passHook = func(pctx context.Context, pass string, f *ir.Func) {
		if pass != PassOptimize {
			return
		}
		started <- struct{}{}
		<-pctx.Done() // a slow pass stub: runs until cancelled
	}

	d := New(Options{Workers: 8, DisableCache: true})
	done := make(chan error, 1)
	p := workload.RandomProgram(2)
	go func() {
		_, err := d.CompileContext(ctx, p, cfg)
		done <- err
	}()
	<-started // at least one function is inside the slow pass
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled compile did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile returned %v, want context.Canceled", err)
	}

	// Goroutine accounting: everything the pipeline spawned must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}

	// The driver stays usable after a cancelled compile.
	if _, err := d.Compile(workload.RandomProgram(2), detConfig(NoCCM)); err != nil {
		t.Fatalf("driver unusable after cancellation: %v", err)
	}
}

// parityFault is a passHook that panics in the optimizer on every
// function whose post-optimize instruction count is even:
// input-dependent, scheduling-independent.
func parityFault(_ context.Context, pass string, f *ir.Func) {
	if pass == PassOptimize && f.NumInstrs()%2 == 0 {
		panic(fmt.Sprintf("parity fault in %s (%d instrs)", f.Name, f.NumInstrs()))
	}
}

// hookFault returns a passHook that panics in pass on the named functions.
func hookFault(pass string, names ...string) func(context.Context, string, *ir.Func) {
	return func(_ context.Context, p string, f *ir.Func) {
		for _, name := range names {
			if p == pass && f.Name == name {
				panic("injected " + pass + " fault in " + f.Name)
			}
		}
	}
}

// TestDegradationDeterminism: with a deterministic fault injected in the
// front stage, the barrier or the back stage, the degraded output of
// workers=8 must be byte-identical to workers=1 — recovery is part of
// the deterministic pipeline, not a race.
func TestDegradationDeterminism(t *testing.T) {
	faults := []struct {
		name   string
		inject func(cfg *Config)
	}{
		{"front", func(cfg *Config) { cfg.passHook = parityFault }},
		{"barrier", func(cfg *Config) { cfg.passHook = hookFault(PassPostPass, "main", "leaf1") }},
		{"compact", func(cfg *Config) { cfg.passHook = hookFault(PassCompact, "main", "leaf1") }},
	}
	for _, fault := range faults {
		for _, strat := range []Strategy{NoCCM, PostPassInterproc, Integrated} {
			for seed := int64(1); seed <= detSeeds; seed++ {
				cfg := faultConfig(strat)
				fault.inject(&cfg)

				p1 := workload.RandomProgram(seed)
				p8 := workload.RandomProgram(seed)
				rep1, err := New(Options{Workers: 1, DisableCache: true}).Compile(p1, cfg)
				if err != nil {
					t.Fatalf("%s fault, strat %v seed %d workers=1: %v", fault.name, strat, seed, err)
				}
				rep8, err := New(Options{Workers: 8, DisableCache: true}).Compile(p8, cfg)
				if err != nil {
					t.Fatalf("%s fault, strat %v seed %d workers=8: %v", fault.name, strat, seed, err)
				}
				if p1.String() != p8.String() {
					t.Errorf("%s fault, strat %v seed %d: degraded ILOC differs between workers=1 and workers=8", fault.name, strat, seed)
				}
				if !reflect.DeepEqual(rep1.PerFunc, rep8.PerFunc) {
					t.Errorf("%s fault, strat %v seed %d: degraded per-func reports differ:\n w1=%+v\n w8=%+v",
						fault.name, strat, seed, rep1.PerFunc, rep8.PerFunc)
				}
				if rep1.Failures != rep8.Failures || rep1.Degraded != rep8.Degraded {
					t.Errorf("%s fault, strat %v seed %d: counters differ: w1=%d/%d w8=%d/%d",
						fault.name, strat, seed, rep1.Failures, rep1.Degraded, rep8.Failures, rep8.Degraded)
				}
			}
		}
	}
}

// TestStrictFaultDeterministic: when several functions fault in one
// stage, a Strict compile lets the stage finish and returns the fault of
// the lowest-index function, so the error and the bundles written do not
// depend on which worker failed first.
func TestStrictFaultDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		var wantErr string
		wantBundles := -1
		for _, workers := range []int{1, 8} {
			for run := 0; run < 3; run++ {
				cfg := faultConfig(NoCCM)
				cfg.Strict = true
				cfg.passHook = parityFault
				cfg.ReproDir = t.TempDir()
				_, err := New(Options{Workers: workers, DisableCache: true}).Compile(workload.RandomProgram(seed), cfg)
				bundles, lerr := repro.LoadDir(cfg.ReproDir)
				if lerr != nil {
					t.Fatal(lerr)
				}
				if wantBundles < 0 {
					wantErr, wantBundles = fmt.Sprint(err), len(bundles)
					continue
				}
				if fmt.Sprint(err) != wantErr || len(bundles) != wantBundles {
					t.Errorf("seed %d workers=%d run %d: error %q with %d bundles, want %q with %d",
						seed, workers, run, err, len(bundles), wantErr, wantBundles)
				}
			}
		}
	}
}

// TestErrorExitCountsFailures: a compile that ends in an error still adds
// its failures to the driver's totals and to the metrics registry.
func TestErrorExitCountsFailures(t *testing.T) {
	rows := []struct {
		name   string
		inject func(cfg *Config)
	}{
		{"front", func(cfg *Config) { cfg.passHook = hookFault(PassOptimize, "main") }},
		{"barrier", func(cfg *Config) { cfg.passHook = hookFault(PassPostPass, "main") }},
	}
	for _, row := range rows {
		cfg := detConfig(PostPassInterproc)
		cfg.Strict = true
		row.inject(&cfg)
		reg := obs.NewRegistry()
		d := New(Options{Metrics: reg, DisableCache: true})
		if _, err := d.Compile(workload.RandomProgram(3), cfg); err == nil {
			t.Fatalf("%s: strict compile with a fault succeeded", row.name)
		}
		if got := d.Metrics().Failures; got != 1 {
			t.Errorf("%s: driver failures = %d, want 1", row.name, got)
		}
		if got := reg.Counter("pipeline.failures").Value(); got != 1 {
			t.Errorf("%s: registry pipeline.failures = %d, want 1", row.name, got)
		}
	}
}

// TestCompactFaultShipsUncompacted: a fault in spill compaction ships its
// function with the post-barrier body, while every other function still
// compacts exactly as in a clean compile.
func TestCompactFaultShipsUncompacted(t *testing.T) {
	cfg := faultConfig(NoCCM)
	cfg.IntRegs, cfg.FloatRegs = 4, 4 // seed 14 then spills in main and leaf1
	clean := mustCompile(t, New(Options{DisableCache: true}), workload.RandomProgram(14), cfg)

	p := workload.RandomProgram(14)
	want := mustCompileClean(t, p.Clone())
	cfg.ReproDir = t.TempDir()
	cfg.passHook = hookFault(PassCompact, "main")
	rep := mustCompile(t, New(Options{}), p, cfg)

	fr := rep.PerFunc["main"]
	if fr.Degraded != "no-compact" || fr.FailedPass != PassCompact {
		t.Errorf("main: degraded=%q pass=%q, want no-compact/compact", fr.Degraded, fr.FailedPass)
	}
	if fr.SpillWebs != 0 || fr.SpillBytesCompacted != 0 {
		t.Errorf("main: compaction stats %d webs/%d bytes survived the fault", fr.SpillWebs, fr.SpillBytesCompacted)
	}
	compacted := 0
	for name, ofr := range rep.PerFunc {
		if name == "main" {
			continue
		}
		// The recompile after the fault is served from the front and back
		// artifacts the first attempt stored.
		ofr.FrontCacheHit, ofr.BackCacheHit = false, false
		if ofr != clean.PerFunc[name] {
			t.Errorf("%s: report %+v, want the clean compile's %+v", name, ofr, clean.PerFunc[name])
		}
		compacted += ofr.SpillWebs
	}
	if compacted == 0 {
		t.Fatal("no other function compacted a spill web (test setup broken)")
	}
	if rep.Failures != 1 || rep.Degraded != 1 || len(rep.Repros) != 1 {
		t.Errorf("failures=%d degraded=%d bundles=%d, want 1/1/1", rep.Failures, rep.Degraded, len(rep.Repros))
	}
	if got := runEmit(t, p, 0); !reflect.DeepEqual(got, want) {
		t.Error("program with an uncompacted function diverges from the input")
	}
}

// TestVerifyPassesCleanSuite: per-pass verification (structural +
// liveness) holds across the real pass pipeline for every strategy — the
// checkpoints add no false positives.
func TestVerifyPassesCleanSuite(t *testing.T) {
	for _, strat := range allStrategies {
		cfg := faultConfig(strat)
		cfg.Strict = true
		for seed := int64(1); seed <= detSeeds; seed++ {
			d := New(Options{DisableCache: true})
			rep, err := d.Compile(workload.RandomProgram(seed), cfg)
			if err != nil {
				t.Fatalf("strat %v seed %d: checkpoint false positive: %v", strat, seed, err)
			}
			if rep.Failures != 0 || rep.Degraded != 0 {
				t.Fatalf("strat %v seed %d: clean compile recorded faults", strat, seed)
			}
		}
	}
}

// TestDegradedCompileNotCached: a compile that recovered from faults must
// not populate the program cache — a later identical compile (perhaps
// with the bug fixed) must re-run the passes. The fault is injected at
// the barrier, on a cached driver, so this exercises the
// no-put-on-failure rule itself.
func TestDegradedCompileNotCached(t *testing.T) {
	d := New(Options{})

	fcfg := detConfig(PostPassInterproc)
	fcfg.passHook = hookFault(PassPostPass, "main")
	frep, err := d.Compile(workload.RandomProgram(21), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if frep.Degraded == 0 {
		t.Fatal("hooked compile did not degrade (test setup broken)")
	}

	cfg := detConfig(PostPassInterproc) // identical cache key, bug "fixed"
	rep, err := d.Compile(workload.RandomProgram(21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProgramCacheHit {
		t.Error("clean compile was served a degraded program artifact")
	}
	if rep.PerFunc["main"].Degraded != "" {
		t.Error("degradation leaked into the clean compile via the cache")
	}
	if rep.PerFunc["main"].PromotedWebs == 0 && frep.PerFunc["main"].SpilledRanges > 0 {
		t.Error("recompile did not restore full-fidelity promotion")
	}
}
