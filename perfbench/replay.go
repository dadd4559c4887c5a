package main

import (
	"context"
	"fmt"

	"ccmem/internal/core"
	"ccmem/internal/ir"
	"ccmem/internal/opt"
	"ccmem/internal/oracle"
	"ccmem/internal/pipeline"
	"ccmem/internal/regalloc"
)

// replayPasses runs the driver's pass sequence for one compile by hand —
// optimize, allocate, post-pass CCM promotion, compaction, final verify,
// and (when the compile used it) the miscompile oracle — one span per
// layer, on in, which it rewrites. It returns the final ILOC, which must
// be byte-identical to the driver's output for the spans to describe the
// same work. perFunc is the compile's report: a function whose front or
// back stage the driver served from its per-function cache is replayed
// without spans for that stage, because the driver did not run it.
//
// The oracle span is an estimate. It runs on seed 1, not on the driver's
// seed, which the pipeline derives from a program hash it does not
// export: the vector count and the programs are the same, the argument
// values are not. For the same reason its verdict is not checked here;
// the driver's own verdict is in its report, and a divergence there fails
// the compile.
func replayPasses(ctx context.Context, led ledger, in *ir.Program, cfg pipeline.Config, perFunc map[string]pipeline.FuncReport) (string, error) {
	var pre *ir.Program
	if cfg.DiffCheck != pipeline.DiffOff {
		pre = in.Clone()
	}
	p := in
	regs := func(n int) int {
		if n == 0 {
			return 32
		}
		return n
	}
	ra := regalloc.Options{IntRegs: regs(cfg.IntRegs), FloatRegs: regs(cfg.FloatRegs)}
	if cfg.Strategy == pipeline.Integrated {
		ra.CCMBytes = cfg.CCMBytes
	}
	var err error
	for _, f := range p.Funcs {
		fl := led
		if perFunc[f.Name].FrontCacheHit {
			fl = nil
		}
		if !cfg.DisableOptimizer {
			fl.span("opt", func() { _, err = opt.Optimize(f) })
			if err != nil {
				return "", fmt.Errorf("replay optimize %s: %w", f.Name, err)
			}
		}
		fl.span("regalloc", func() { _, err = regalloc.Allocate(f, ra) })
		if err != nil {
			return "", fmt.Errorf("replay regalloc %s: %w", f.Name, err)
		}
	}
	if cfg.Strategy == pipeline.PostPass || cfg.Strategy == pipeline.PostPassInterproc {
		led.span("core.postpass", func() {
			_, err = core.PostPass(p, core.PostPassOptions{
				CCMBytes:        cfg.CCMBytes,
				Interprocedural: cfg.Strategy == pipeline.PostPassInterproc,
			})
		})
		if err != nil {
			return "", fmt.Errorf("replay postpass: %w", err)
		}
	}
	if !cfg.DisableCompaction {
		for _, f := range p.Funcs {
			fl := led
			if perFunc[f.Name].BackCacheHit {
				fl = nil
			}
			fl.span("core.compact", func() { _, err = core.CompactSpills(f) })
			if err != nil {
				return "", fmt.Errorf("replay compact %s: %w", f.Name, err)
			}
		}
	}
	led.span("ir.verify", func() { err = ir.VerifyProgram(p, ir.VerifyOptions{}) })
	if err != nil {
		return "", fmt.Errorf("replay verify: %w", err)
	}
	if pre != nil {
		led.span("oracle", func() {
			_, err = oracle.Check(ctx, pre, p, oracle.Options{Seed: 1, Vectors: cfg.DiffVectors, CCMBytes: cfg.CCMBytes})
		})
		if err != nil {
			return "", fmt.Errorf("replay oracle: %w", err)
		}
	}
	return p.String(), nil
}
