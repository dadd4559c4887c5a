package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"ccmem/internal/cfg"
	"ccmem/internal/ir"
	"ccmem/internal/liveness"
)

// CompileError is the structured failure record for one pass attempt.
// Panics raised anywhere under a pass — the IR builder and bitset layers
// panic on malformed state — are recovered and converted into one of
// these, carrying the pass name, the function being compiled, the
// degradation rung active at the time, and the goroutine stack when the
// failure was a panic.
type CompileError struct {
	Pass     string // pass that failed or first broke an invariant
	Func     string // function being compiled ("" for whole-program passes)
	Level    string // degradation rung active during the attempt
	Panicked bool   // true when the failure was a recovered panic
	Stack    []byte // goroutine stack captured at the recover site
	Err      error  // underlying cause
}

func (e *CompileError) Error() string {
	where := e.Func
	if where == "" {
		where = "<program>"
	}
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("pipeline: pass %s %s on %s (level %s): %v", e.Pass, kind, where, e.Level, e.Err)
}

func (e *CompileError) Unwrap() error { return e.Err }

// degradeLevel is a rung on the degradation ladder. Rungs are tried in
// order; each strips away the machinery most likely to be at fault while
// keeping the function compilable.
type degradeLevel int

const (
	// levelFull compiles exactly as configured.
	levelFull degradeLevel = iota
	// levelNoOpt disables the scalar optimizer, keeping the configured
	// allocator.
	levelNoOpt
	// levelBaseline additionally falls back to the plain spill-to-RAM
	// allocator: no integrated CCM assignment, and the function is
	// excluded from post-pass CCM promotion.
	levelBaseline

	numLevels
)

func (l degradeLevel) String() string {
	switch l {
	case levelFull:
		return "full"
	case levelNoOpt:
		return "no-opt"
	case levelBaseline:
		return "baseline"
	}
	return fmt.Sprintf("level-%d", int(l))
}

// runGuarded executes one pass body under recover, converting a panic or
// returned error into a *CompileError attributed to (pass, fn, level).
func runGuarded(pass, fn string, level degradeLevel, body func() error) (cerr *CompileError) {
	defer func() {
		if r := recover(); r != nil {
			cerr = &CompileError{
				Pass:     pass,
				Func:     fn,
				Level:    level.String(),
				Panicked: true,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("%v", r),
			}
		}
	}()
	if err := body(); err != nil {
		var inner *CompileError
		if errors.As(err, &inner) {
			return inner
		}
		return &CompileError{Pass: pass, Func: fn, Level: level.String(), Err: err}
	}
	return nil
}

// checkpoint verifies f's structural invariants plus liveness
// consistency, attributing any breakage to the pass that just ran. It is
// the per-pass verification mode: with it on, a miscompiling pass is
// caught at the first checkpoint after it runs instead of (maybe) at the
// final whole-program verify or (worse) as a silent simulator divergence.
//
// prog is nil by design: checkpoints run inside the parallel front stage
// while sibling functions are being rewritten, so cross-function checks
// (call signatures) are deferred to the sequential final verify.
func checkpoint(pass string, f *ir.Func, level degradeLevel) *CompileError {
	return runGuarded(pass, f.Name, level, func() error {
		if err := ir.VerifyFunc(f, ir.VerifyOptions{}); err != nil {
			return err
		}
		return VerifyLiveness(f)
	})
}

// VerifyLiveness is the liveness-consistency check: no register other
// than a declared parameter may be live into the entry block. A register
// that is live-in at entry is used on some path before any definition —
// code that reads garbage. ir.VerifyFunc cannot see this (a declared,
// classed register with no defining instruction is structurally fine), so
// this is the checkpoint that catches passes emitting uses of values they
// forgot to define, or deleting a definition whose uses remain.
func VerifyLiveness(f *ir.Func) error {
	g, err := cfg.New(f)
	if err != nil {
		return err
	}
	live := liveness.Registers(f, g)
	if len(live.In) == 0 {
		return nil
	}
	params := map[ir.Reg]bool{}
	for _, p := range f.Params {
		params[p] = true
	}
	entry := live.In[0]
	for r := 0; r < entry.Len(); r++ {
		if entry.Has(r) && !params[ir.Reg(r)] {
			return fmt.Errorf("ir: func %s: register %s is live into entry but is not a parameter (use before def)",
				f.Name, f.RegName(ir.Reg(r)))
		}
	}
	return nil
}

// ctxErr converts a context failure at a pass boundary into a
// *CompileError so cancellation flows through the same reporting path as
// faults.
func ctxErr(ctx context.Context, pass, fn string, level degradeLevel) *CompileError {
	if err := ctx.Err(); err != nil {
		return &CompileError{Pass: pass, Func: fn, Level: level.String(), Err: err}
	}
	return nil
}
