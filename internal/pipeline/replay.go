package pipeline

import (
	"context"
	"encoding/json"
	"fmt"

	"ccmem/internal/ir"
	"ccmem/internal/oracle"
	"ccmem/internal/repro"
)

// marshalConfig encodes cfg for a repro bundle.
func marshalConfig(cfg Config) json.RawMessage {
	data, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain struct of scalars; this cannot fail, but a
		// bundle with no config beats no bundle.
		return nil
	}
	return data
}

// Replay re-runs a crash repro bundle and returns the reproduced failure,
// or nil if the toolchain no longer faults on it. Compile bundles replay
// single-threaded, uncached, in Strict mode with per-pass verification,
// so a latent fault surfaces as a *CompileError rather than being
// degraded away. A compile bundle's config decodes leniently, so a
// bundle naming a field this version no longer has still replays.
// Run-kind bundles are executed by the public facade, not here.
func Replay(b *repro.Bundle) error {
	switch b.Kind {
	case repro.KindParse:
		// The finding was "the parser crashed or mis-round-tripped": a
		// graceful parse error is a pass.
		p, err := ir.Parse(b.Program)
		if err != nil {
			return nil
		}
		if err := ir.VerifyProgram(p, ir.VerifyOptions{AllowPhi: true}); err != nil {
			return nil
		}
		text := p.String()
		q, err := ir.Parse(text)
		if err != nil {
			return fmt.Errorf("replay: printed program does not reparse: %w", err)
		}
		if q.String() != text {
			return fmt.Errorf("replay: print → parse → print is not a fixed point")
		}
		return nil
	case repro.KindCompile:
		p, err := ir.Parse(b.Program)
		if err != nil {
			return fmt.Errorf("replay: bundle program does not parse: %w", err)
		}
		if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
			return fmt.Errorf("replay: bundle program does not verify: %w", err)
		}
		var cfg Config
		if len(b.Config) > 0 {
			if err := json.Unmarshal(b.Config, &cfg); err != nil {
				return fmt.Errorf("replay: bundle config: %w", err)
			}
		}
		cfg.Strict = true
		cfg.VerifyPasses = true
		cfg.ReproDir = ""
		d := New(Options{Workers: 1, DisableCache: true})
		_, err = d.Compile(p, cfg)
		return err
	case repro.KindMiscompile:
		// The finding was "these two programs compute different things":
		// re-run the exact differential check that fired. The divergence
		// re-confirming is the pass; a clean check means the recorded
		// miscompile is no longer observable, which a regression corpus
		// must flag.
		pre, err := ir.Parse(b.Program)
		if err != nil {
			return fmt.Errorf("replay: bundle pre program does not parse: %w", err)
		}
		post, err := ir.Parse(b.Post)
		if err != nil {
			return fmt.Errorf("replay: bundle post program does not parse: %w", err)
		}
		var cfg Config
		if len(b.Config) > 0 {
			if err := json.Unmarshal(b.Config, &cfg); err != nil {
				return fmt.Errorf("replay: bundle config: %w", err)
			}
		}
		res, err := oracle.Check(context.Background(), pre, post, oracle.Options{
			Seed:     b.Seed,
			Vectors:  cfg.DiffVectors,
			CCMBytes: cfg.CCMBytes,
		})
		if err != nil {
			return fmt.Errorf("replay: differential check: %w", err)
		}
		if res.Equivalent() {
			return fmt.Errorf("replay: recorded miscompile no longer reproduces (programs now agree on %d runs)", res.Runs)
		}
		return nil
	case repro.KindRun:
		return fmt.Errorf("replay: run bundles replay through the ccm facade, not the pipeline")
	}
	return fmt.Errorf("replay: unknown bundle kind %q", b.Kind)
}
