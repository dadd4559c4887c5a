package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ccmem/internal/experiments"
	"ccmem/internal/ir"
	"ccmem/internal/memsys"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// benchConfig is ccmbench's evaluation configuration: the paper's
// machine, strict compiles, and the final miscompile oracle on.
func benchConfig(ctx context.Context, drv *pipeline.Driver) experiments.Config {
	cfg := experiments.Default()
	cfg.Ctx = ctx
	cfg.Driver = drv
	cfg.Strict = true
	cfg.DiffCheck = pipeline.DiffFinal
	return cfg
}

// evaluate regenerates ccmbench's default output (the §2.1 multi-process
// comparison, the §4.3 ablation, Tables 1-4, Figures 3-4) through the
// experiments entry points, exactly as ccmbench prints it.
func evaluate(cfg experiments.Config) (string, error) {
	m, err := experiments.MultiProcess(cfg, nil, 1024)
	if err != nil {
		return "", err
	}
	rows, err := experiments.Ablation43(cfg, nil)
	if err != nil {
		return "", err
	}
	res, err := experiments.RunSuite(cfg)
	if err != nil {
		return "", err
	}
	return formatEvaluation(m, rows, res), nil
}

func formatEvaluation(m *experiments.MultiProcResult, rows []experiments.AblationRow, res *experiments.SuiteResults) string {
	var b strings.Builder
	for _, s := range []string{
		experiments.FormatMultiProc(m),
		experiments.FormatAblation(rows),
		res.FormatTable1(),
		res.FormatTable2(512),
		res.FormatTable3(512, 1024),
		res.FormatTable4(),
		res.FormatFigure(3, 512),
		res.FormatFigure(4, 1024),
	} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// walker makes the calls the experiments suite makes — workload Build,
// Driver.CompileContext, sim.Run — one (input × variant) at a time, so
// that the benchmark can time each call. With a ledger it records a span
// around each call and replays every compile that missed the cache
// through the passes one by one.
type walker struct {
	ctx context.Context
	drv *pipeline.Driver
	cfg experiments.Config
	led ledger // nil: untraced

	compileLat []time.Duration // per CompileContext call
	counts     counts
	replayErrs []string
}

// counts are the work counts read from each returned pipeline.Report and
// sim.Stats; two walks of one seed must produce identical counts.
type counts struct {
	Compiles, Funcs, ProgramHits, ProgramMisses int64
	PassRuns                                    map[string]int64
	InstrsBefore, InstrsAfter                   map[string]int64
	PromotedWebs, OracleRuns, OracleInconcl     int64
	SimRuns, SimInstrs                          int64
	MemEvictions                                int64
}

func newWalker(ctx context.Context, drv *pipeline.Driver, led ledger) *walker {
	return &walker{ctx: ctx, drv: drv, cfg: benchConfig(ctx, drv), led: led, counts: newCounts()}
}

func newCounts() counts {
	return counts{PassRuns: map[string]int64{}, InstrsBefore: map[string]int64{}, InstrsAfter: map[string]int64{}}
}

// note folds one compile report into the counts.
func (c *counts) note(rep *pipeline.Report) {
	c.Compiles++
	c.Funcs += int64(rep.Funcs)
	if rep.ProgramCacheHit {
		c.ProgramHits++
	} else {
		c.ProgramMisses++
	}
	for _, ps := range rep.Passes {
		c.PassRuns[ps.Name] += ps.Runs
		c.InstrsBefore[ps.Name] += ps.InstrsBefore
		c.InstrsAfter[ps.Name] += ps.InstrsAfter
	}
	for _, fr := range rep.PerFunc {
		c.PromotedWebs += int64(fr.PromotedWebs)
	}
	c.OracleRuns += rep.DiffRuns
	c.OracleInconcl += rep.DiffInconclusive
	c.MemEvictions = rep.Cache.Memory.Evictions
}

func (w *walker) build(r func() (*ir.Program, error)) (p *ir.Program, err error) {
	w.led.span("workload.build", func() { p, err = r() })
	return p, err
}

func pipelineStrategy(s experiments.Strategy) pipeline.Strategy {
	switch s {
	case experiments.StrategyPostPass:
		return pipeline.PostPass
	case experiments.StrategyPostPassIPA:
		return pipeline.PostPassInterproc
	case experiments.StrategyIntegrated:
		return pipeline.Integrated
	}
	return pipeline.NoCCM
}

// compile mirrors the experiments harness's compile call.
func (w *walker) compile(p *ir.Program, strat experiments.Strategy, ccmBytes int64, compact bool) (*pipeline.Report, error) {
	pc := pipeline.Config{
		Strategy:          pipelineStrategy(strat),
		CCMBytes:          ccmBytes,
		IntRegs:           w.cfg.IntRegs,
		FloatRegs:         w.cfg.FloatRegs,
		DisableCompaction: !compact,
		Strict:            w.cfg.Strict,
		DiffCheck:         w.cfg.DiffCheck,
	}
	var input *ir.Program
	if w.led != nil {
		w.led.span("replay", func() { input = p.Clone() })
	}
	t := time.Now()
	rep, err := w.drv.CompileContext(w.ctx, p, pc)
	d := time.Since(t)
	w.compileLat = append(w.compileLat, d)
	if err != nil {
		return nil, err
	}
	w.counts.note(rep)
	if w.led == nil {
		return rep, nil
	}
	w.led["pipeline.compile"] += d
	if rep.ProgramCacheHit {
		w.led["pipeline.lookup"] += d
		return rep, nil
	}
	w.led["pipeline.miss"] += d
	w.led.span("replay", func() {
		out, rerr := replayPasses(w.ctx, w.led, input, pc, rep.PerFunc)
		switch {
		case rerr != nil:
			w.replayErrs = append(w.replayErrs, rerr.Error())
		case out != p.String():
			w.replayErrs = append(w.replayErrs, fmt.Sprintf("replayed ILOC differs from the driver's output (%s)", p.Funcs[0].Name))
		}
	})
	return rep, nil
}

func (w *walker) run(p *ir.Program, sc sim.Config) (st *sim.Stats, err error) {
	w.led.span("sim", func() { st, err = sim.Run(p, "main", sc) })
	if err == nil {
		w.counts.SimRuns++
		w.counts.SimInstrs += st.Instrs
	}
	return st, err
}

// evaluate is the walker's twin of the package-level evaluate: the same
// calls in the same order, assembled into the same printed evaluation.
func (w *walker) evaluate() (string, error) {
	m, err := w.multiProcess([]string{"fpppp", "saturr", "radb5X"}, 1024)
	if err != nil {
		return "", err
	}
	rows, err := w.ablation(experiments.AblationRoutines)
	if err != nil {
		return "", err
	}
	res := &experiments.SuiteResults{Config: w.cfg}
	if res.Routines, err = w.routines(); err != nil {
		return "", err
	}
	if res.Programs, err = w.programs(); err != nil {
		return "", err
	}
	return formatEvaluation(m, rows, res), nil
}

func (w *walker) routines() ([]*experiments.RoutineResult, error) {
	var out []*experiments.RoutineResult
	for _, r := range workload.All() {
		rr := &experiments.RoutineResult{Name: r.Name, Family: r.Family,
			Strat: map[experiments.Key]experiments.CycPair{}, Promo: map[experiments.Key]int{}}
		p, err := w.build(r.Build)
		if err != nil {
			return nil, err
		}
		rep, err := w.compile(p, experiments.StrategyNone, 0, true)
		if err != nil {
			return nil, fmt.Errorf("routine %s: %w", r.Name, err)
		}
		fr := rep.PerFunc[r.Name]
		rr.SpillBefore, rr.SpillAfter, rr.Webs = fr.SpillBytesNaive, fr.SpillBytesCompacted, fr.SpillWebs
		st, err := w.run(p, sim.Config{MemCost: w.cfg.MemCost})
		if err != nil {
			return nil, fmt.Errorf("routine %s baseline: %w", r.Name, err)
		}
		fs := st.PerFunc[r.Name]
		rr.Base = experiments.CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}
		for _, size := range w.cfg.CCMSizes {
			for _, strat := range experiments.Strategies {
				p, err := w.build(r.Build)
				if err != nil {
					return nil, err
				}
				if _, err := w.compile(p, strat, size, true); err != nil {
					return nil, fmt.Errorf("routine %s %v/%d: %w", r.Name, strat, size, err)
				}
				promo := 0
				if strat == experiments.StrategyPostPass || strat == experiments.StrategyPostPassIPA {
					promo = countCCMOps(p.Func(r.Name))
				}
				st, err := w.run(p, sim.Config{MemCost: w.cfg.MemCost, CCMBytes: size})
				if err != nil {
					return nil, err
				}
				fs := st.PerFunc[r.Name]
				if fs == nil {
					return nil, fmt.Errorf("routine %s not executed", r.Name)
				}
				k := experiments.Key{Strategy: strat, CCMBytes: size}
				rr.Strat[k] = experiments.CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}
				rr.Promo[k] = promo
			}
		}
		out = append(out, rr)
	}
	return out, nil
}

func (w *walker) programs() ([]*experiments.ProgramResult, error) {
	var out []*experiments.ProgramResult
	for _, bp := range workload.Programs() {
		pr := &experiments.ProgramResult{Name: bp.Name, Strat: map[experiments.Key]experiments.CycPair{}}
		p, err := w.build(bp.Build)
		if err != nil {
			return nil, err
		}
		if _, err := w.compile(p, experiments.StrategyNone, 0, true); err != nil {
			return nil, fmt.Errorf("program %s: %w", bp.Name, err)
		}
		st, err := w.run(p, sim.Config{MemCost: w.cfg.MemCost})
		if err != nil {
			return nil, err
		}
		pr.Base = experiments.CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}
		for _, size := range w.cfg.CCMSizes {
			for _, strat := range experiments.Strategies {
				q, err := w.build(bp.Build)
				if err != nil {
					return nil, err
				}
				if _, err := w.compile(q, strat, size, true); err != nil {
					return nil, fmt.Errorf("program %s %v/%d: %w", bp.Name, strat, size, err)
				}
				st, err := w.run(q, sim.Config{MemCost: w.cfg.MemCost, CCMBytes: size})
				if err != nil {
					return nil, err
				}
				pr.Strat[experiments.Key{Strategy: strat, CCMBytes: size}] = experiments.CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}
			}
		}
		out = append(out, pr)
	}
	return out, nil
}

// ablationCache is the §4.3 baseline data cache: 1 KB direct-mapped,
// 32-byte lines, 1-cycle hit, 8-cycle miss.
func ablationCache() memsys.CacheConfig {
	return memsys.CacheConfig{LineBytes: 32, Sets: 32, Ways: 1, HitCost: 1, MissCost: 8}
}

func (w *walker) ablation(names []string) ([]experiments.AblationRow, error) {
	var rows []experiments.AblationRow
	for _, name := range names {
		r, ok := workload.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("ablation: unknown routine %q", name)
		}
		runWith := func(strat experiments.Strategy, ccmBytes int64, model memsys.Model) (*sim.Stats, error) {
			p, err := w.build(r.Build)
			if err != nil {
				return nil, err
			}
			if _, err := w.compile(p, strat, ccmBytes, false); err != nil {
				return nil, err
			}
			return w.run(p, sim.Config{MemCost: w.cfg.MemCost, CCMBytes: ccmBytes, Memory: model})
		}
		better, victim := ablationCache(), ablationCache()
		better.Ways = 2
		victim.VictimWays = 4
		caches := make([]*memsys.Cache, 5)
		for i, cc := range []memsys.CacheConfig{ablationCache(), better, ablationCache(), victim, ablationCache()} {
			c, err := memsys.NewCache(cc)
			if err != nil {
				return nil, err
			}
			caches[i] = c
		}
		models := []memsys.Model{caches[0], caches[1], memsys.NewWriteBuffer(caches[2], 1), caches[3], caches[4]}
		var st [5]*sim.Stats
		for i, model := range models {
			strat, ccm := experiments.StrategyNone, int64(0)
			if i == 4 {
				strat, ccm = experiments.StrategyPostPassIPA, 1024
			}
			s, err := runWith(strat, ccm, model)
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", name, err)
			}
			st[i] = s
		}
		rel := func(s *sim.Stats) float64 { return float64(s.Cycles) / float64(st[0].Cycles) }
		missRate := func(s memsys.Stats) float64 {
			if s.Accesses == 0 {
				return 0
			}
			return float64(s.Misses) / float64(s.Accesses)
		}
		rows = append(rows, experiments.AblationRow{
			Name: name, BaseCycles: st[0].Cycles,
			BetterCache: rel(st[1]), WriteBuffer: rel(st[2]), VictimCache: rel(st[3]), CCM: rel(st[4]),
			MissBase: missRate(caches[0].Stats()), MissCCM: missRate(caches[4].Stats()),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].BaseCycles > rows[j].BaseCycles })
	return rows, nil
}

func (w *walker) multiProcess(names []string, ccmBytes int64) (*experiments.MultiProcResult, error) {
	n := int64(len(names))
	partition := (ccmBytes / n) / 8 * 8
	res := &experiments.MultiProcResult{Processes: names, CCMBytes: ccmBytes, Partition: partition}
	for i, name := range names {
		r, ok := workload.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("multiproc: unknown routine %q", name)
		}
		p, err := w.build(r.Build)
		if err != nil {
			return nil, err
		}
		if _, err := w.compile(p, experiments.StrategyPostPassIPA, ccmBytes, false); err != nil {
			return nil, err
		}
		maxUsed := int64(0)
		for _, f := range p.Funcs {
			maxUsed = max(maxUsed, f.CCMBytes)
		}
		st, err := w.run(p, sim.Config{MemCost: w.cfg.MemCost, CCMBytes: ccmBytes})
		if err != nil {
			return nil, err
		}
		res.CopyCycles += st.Cycles
		res.CopyPerSwitch += 2 * (maxUsed / 8) * int64(w.cfg.MemCost)
		q, err := w.build(r.Build)
		if err != nil {
			return nil, err
		}
		if _, err := w.compile(q, experiments.StrategyPostPassIPA, partition, false); err != nil {
			return nil, err
		}
		st2, err := w.run(q, sim.Config{MemCost: w.cfg.MemCost, CCMBytes: ccmBytes, CCMBase: int64(i) * partition})
		if err != nil {
			return nil, err
		}
		res.PartitionCycles += st2.Cycles
	}
	delta := res.PartitionCycles - res.CopyCycles
	if res.CopyPerSwitch > 0 && delta > 0 {
		res.BreakEvenSwitches = delta/res.CopyPerSwitch + 1
	}
	return res, nil
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
