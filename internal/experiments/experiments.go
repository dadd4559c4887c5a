// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) over the synthetic suite in internal/workload:
//
//	Table 1  — spill memory before/after coloring-based compaction
//	Table 2  — per-routine dynamic cycles, 512-byte CCM, three algorithms
//	Table 3  — routines whose speedup changes with a 1024-byte CCM
//	Table 4  — weighted-average reduction in cycles / memory-op cycles
//	Figure 3 — whole-program running times, 512-byte CCM
//	Figure 4 — whole-program running times, 1024-byte CCM
//	§4.3     — ablation: cache, write buffer, victim cache vs the CCM
//
// The machine model matches §4: 64 registers (32 GPR + 32 FPR), single
// issue, 2-cycle main-memory operations, 1-cycle everything else
// (CCM included).
package experiments

import (
	"context"
	"fmt"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// Strategy selects a CCM allocation algorithm (paper §3).
type Strategy int

const (
	// StrategyNone is the plain Chaitin-Briggs allocator: all spills go to
	// the activation record ("Without CCM").
	StrategyNone Strategy = iota
	// StrategyPostPass is the stand-alone post-pass CCM allocator without
	// interprocedural information.
	StrategyPostPass
	// StrategyPostPassIPA is the post-pass allocator driven by the call
	// graph ("Post-Pass w/ Call Graph").
	StrategyPostPassIPA
	// StrategyIntegrated folds CCM allocation into spill-code insertion
	// inside the register allocator (paper §3.2).
	StrategyIntegrated

	numStrategies
)

func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "Without CCM"
	case StrategyPostPass:
		return "Post-Pass"
	case StrategyPostPassIPA:
		return "Post-Pass w/ Call Graph"
	case StrategyIntegrated:
		return "Integrated"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists the three CCM algorithms compared in Tables 2-4.
var Strategies = []Strategy{StrategyPostPass, StrategyPostPassIPA, StrategyIntegrated}

// Config parameterizes a suite run.
type Config struct {
	MemCost   int     // main-memory op cost; paper: 2
	CCMSizes  []int64 // paper: 512 and 1024 bytes
	IntRegs   int     // paper: 32
	FloatRegs int     // paper: 32

	// Driver, when non-nil, is the compilation driver every measurement
	// goes through — sharing one driver shares its artifact cache and
	// accumulates pass/cache metrics across tables, figures, and
	// ablations (ccmbench -json prints them). When nil, each suite entry
	// point builds a private driver.
	Driver *pipeline.Driver

	// VerifyPasses checkpoints IR and liveness invariants after every
	// compilation pass; Strict fails a measurement on the first pass
	// fault instead of letting the driver degrade the function (degraded
	// code would silently skew the tables, so benchmarking wants Strict).
	VerifyPasses bool
	Strict       bool
	// FuncTimeout bounds each per-function compile attempt (0 = none);
	// ReproDir receives crash repro bundles for any pass fault.
	FuncTimeout time.Duration
	ReproDir    string

	// DiffCheck runs the differential-execution miscompile oracle on
	// every measured compile: wrong code would skew the tables as
	// silently as degraded code, so benchmarking wants it on (with
	// Strict, a divergence aborts the run as a *pipeline.MiscompileError
	// rather than quarantining).
	DiffCheck pipeline.DiffCheck

	// Ctx, when non-nil, cancels in-flight measurements cooperatively at
	// pass boundaries (ccmbench binds it to SIGINT/SIGTERM so an
	// interrupted sweep stops cleanly at the next boundary instead of
	// dying mid-write). Nil means never cancelled.
	Ctx context.Context
}

// ctx returns the configured cancellation context or Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{MemCost: 2, CCMSizes: []int64{512, 1024}, IntRegs: 32, FloatRegs: 32}
}

// driver returns the configured driver or a fresh private one.
func (c Config) driver() *pipeline.Driver {
	if c.Driver != nil {
		return c.Driver
	}
	return pipeline.New(pipeline.Options{})
}

// pipelineStrategy maps the experiment strategy onto the driver's.
func (s Strategy) pipelineStrategy() pipeline.Strategy {
	switch s {
	case StrategyPostPass:
		return pipeline.PostPass
	case StrategyPostPassIPA:
		return pipeline.PostPassInterproc
	case StrategyIntegrated:
		return pipeline.Integrated
	}
	return pipeline.NoCCM
}

// CycPair is a (total cycles, memory-operation cycles) measurement.
type CycPair struct {
	Cycles int64
	Mem    int64
}

// Ratio returns p relative to base, per the paper's table format.
func (p CycPair) Ratio(base CycPair) (cyc, mem float64) {
	cyc, mem = 1, 1
	if base.Cycles > 0 {
		cyc = float64(p.Cycles) / float64(base.Cycles)
	}
	if base.Mem > 0 {
		mem = float64(p.Mem) / float64(base.Mem)
	}
	return cyc, mem
}

// Key identifies one compiled variant.
type Key struct {
	Strategy Strategy
	CCMBytes int64
}

// RoutineResult holds all measurements for one suite routine.
type RoutineResult struct {
	Name   string
	Family string

	SpillBefore int64 // naive spill bytes (one slot per spilled range)
	SpillAfter  int64 // after coloring-based compaction
	Webs        int   // spill-location live ranges

	Base  CycPair         // plain allocator, no CCM
	Strat map[Key]CycPair // per strategy and CCM size
	Promo map[Key]int     // webs promoted (post-pass strategies)
}

// Spills reports whether the routine needed spill code at all; the paper's
// tables include only such routines.
func (r *RoutineResult) Spills() bool { return r.SpillBefore > 0 }

// ProgramResult holds whole-program totals (Figures 3 and 4).
type ProgramResult struct {
	Name  string
	Base  CycPair
	Strat map[Key]CycPair
}

// Improved reports whether any strategy at the given size beats the
// baseline by more than 0.5% (the paper shows "the six programs (out of
// 13) which showed improvement").
func (p *ProgramResult) Improved(size int64) bool {
	for _, s := range Strategies {
		if c, ok := p.Strat[Key{s, size}]; ok {
			cyc, _ := c.Ratio(p.Base)
			if cyc < 0.995 {
				return true
			}
		}
	}
	return false
}

// SuiteResults is everything needed to print all tables and figures.
type SuiteResults struct {
	Config   Config
	Routines []*RoutineResult
	Programs []*ProgramResult
}

// compileWith compiles a shallow copy of in, one built input, through drv
// and returns the compiled program. The driver never writes the functions
// it is given, so each input is built once and compiled under every
// variant. compact controls the back stage: the table and figure
// measurements pack residual heavyweight spills (paper footnote 3), while
// the ablation and multi-process studies skip compaction so the spill
// address streams their cache models observe match the paper-faithful
// harness.
func compileWith(drv *pipeline.Driver, in *ir.Program, strat Strategy, ccmBytes int64, cfg Config, compact bool) (*ir.Program, *pipeline.Report, error) {
	p := &ir.Program{Globals: in.Globals, Funcs: append([]*ir.Func(nil), in.Funcs...)}
	rep, err := drv.CompileContext(cfg.ctx(), p, pipeline.Config{
		Strategy:          strat.pipelineStrategy(),
		CCMBytes:          ccmBytes,
		IntRegs:           cfg.IntRegs,
		FloatRegs:         cfg.FloatRegs,
		DisableCompaction: !compact,
		VerifyPasses:      cfg.VerifyPasses,
		Strict:            cfg.Strict,
		FuncTimeout:       cfg.FuncTimeout,
		ReproDir:          cfg.ReproDir,
		DiffCheck:         cfg.DiffCheck,
	})
	return p, rep, err
}

// runProgram executes a compiled program and returns whole-program and
// per-function measurements.
func runProgram(p *ir.Program, ccmBytes int64, cfg Config) (*sim.Stats, error) {
	return sim.Run(p, "main", sim.Config{MemCost: cfg.MemCost, CCMBytes: ccmBytes})
}

// measureRoutine compiles and runs the named routine, built as in, under
// one variant, returning the measured function's exclusive costs and
// promotion count. Residual heavyweight spills are packed (paper
// footnote 3); this is cycle-neutral but keeps frame sizes honest.
func measureRoutine(drv *pipeline.Driver, name string, in *ir.Program, strat Strategy, ccmBytes int64, cfg Config) (CycPair, int, error) {
	p, _, err := compileWith(drv, in, strat, ccmBytes, cfg, true)
	if err != nil {
		return CycPair{}, 0, err
	}
	promoted := 0
	if strat == StrategyPostPass || strat == StrategyPostPassIPA {
		promoted = countCCMOps(p.Func(name))
	}
	st, err := runProgram(p, ccmBytes, cfg)
	if err != nil {
		return CycPair{}, 0, err
	}
	fs := st.PerFunc[name]
	if fs == nil {
		return CycPair{}, 0, fmt.Errorf("routine %s not executed", name)
	}
	return CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}, promoted, nil
}

func countCCMOps(f *ir.Func) int {
	n := 0
	if f == nil {
		return 0
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.IsCCMOp() {
				n++
			}
		}
	}
	return n
}

// RunSuite performs every compile+run combination needed by the tables
// and figures: per routine and per program, the baseline plus each
// strategy at each CCM size, all compiled from one build of the input.
// The whole run shares one driver, so the compile cache carries artifacts
// across variants: front artifacts (the front stage is identical for the
// baseline and both post-pass strategies), back artifacts and whole
// programs. Config.DiffCheck, which ccmbench and perfbench always set,
// keeps all three tiers on, and the driver's oracle memo simulates each
// input's runs once across its variants.
func RunSuite(cfg Config) (*SuiteResults, error) {
	if cfg.Driver == nil {
		cfg.Driver = cfg.driver()
	}
	res, err := RunRoutineSuite(cfg)
	if err != nil {
		return nil, err
	}
	progs, err := RunProgramSuite(cfg)
	if err != nil {
		return nil, err
	}
	res.Programs = progs.Programs
	return res, nil
}

// RunRoutineSuite measures every routine (Tables 1-4).
func RunRoutineSuite(cfg Config) (*SuiteResults, error) {
	res := &SuiteResults{Config: cfg}
	drv := cfg.driver()

	for _, r := range workload.All() {
		rr := &RoutineResult{
			Name:   r.Name,
			Family: r.Family,
			Strat:  map[Key]CycPair{},
			Promo:  map[Key]int{},
		}

		in, err := r.Build()
		if err != nil {
			return nil, err
		}
		// Baseline (and Table 1 compaction measurements).
		p, rep, err := compileWith(drv, in, StrategyNone, 0, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("routine %s: %w", r.Name, err)
		}
		fr := rep.PerFunc[r.Name]
		rr.SpillBefore = fr.SpillBytesNaive
		rr.SpillAfter = fr.SpillBytesCompacted
		rr.Webs = fr.SpillWebs
		st, err := runProgram(p, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("routine %s baseline: %w", r.Name, err)
		}
		fs := st.PerFunc[r.Name]
		rr.Base = CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}

		for _, size := range cfg.CCMSizes {
			for _, strat := range Strategies {
				pair, promo, err := measureRoutine(drv, r.Name, in, strat, size, cfg)
				if err != nil {
					return nil, fmt.Errorf("routine %s %v/%d: %w", r.Name, strat, size, err)
				}
				k := Key{strat, size}
				rr.Strat[k] = pair
				rr.Promo[k] = promo
			}
		}
		res.Routines = append(res.Routines, rr)
	}
	return res, nil
}

// RunProgramSuite measures the whole-program workloads (Figures 3-4).
func RunProgramSuite(cfg Config) (*SuiteResults, error) {
	res := &SuiteResults{Config: cfg}
	drv := cfg.driver()
	for _, bp := range workload.Programs() {
		pr := &ProgramResult{Name: bp.Name, Strat: map[Key]CycPair{}}
		in, err := bp.Build()
		if err != nil {
			return nil, err
		}
		p, _, err := compileWith(drv, in, StrategyNone, 0, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("program %s: %w", bp.Name, err)
		}
		st, err := runProgram(p, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("program %s baseline: %w", bp.Name, err)
		}
		pr.Base = CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}

		for _, size := range cfg.CCMSizes {
			for _, strat := range Strategies {
				q, _, err := compileWith(drv, in, strat, size, cfg, true)
				if err != nil {
					return nil, fmt.Errorf("program %s %v/%d: %w", bp.Name, strat, size, err)
				}
				st, err := runProgram(q, size, cfg)
				if err != nil {
					return nil, fmt.Errorf("program %s %v/%d: %w", bp.Name, strat, size, err)
				}
				pr.Strat[Key{strat, size}] = CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}
			}
		}
		res.Programs = append(res.Programs, pr)
	}
	return res, nil
}
