package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/oracle"
	"ccmem/internal/repro"
)

// DiffCheck selects when the differential-execution miscompile oracle
// (internal/oracle) runs during a Compile. Structural verification
// (Config.VerifyPasses, the final VerifyProgram) proves the output is
// well-formed ILOC; the oracle proves it still computes what the input
// computed, by executing both on deterministic seed-derived argument
// vectors and comparing traces, return values, and fault behavior.
type DiffCheck int

const (
	// DiffOff disables differential checking (the default).
	DiffOff DiffCheck = iota
	// DiffFinal checks the fully compiled program against the input once,
	// after the final verify. Divergences are attributed to the first
	// semantically-divergent pass by bisecting per-pass snapshots.
	DiffFinal
)

func (d DiffCheck) String() string {
	switch d {
	case DiffOff:
		return "off"
	case DiffFinal:
		return "final"
	}
	return fmt.Sprintf("DiffCheck(%d)", int(d))
}

// ParseDiffCheck converts a command-line name into a DiffCheck mode.
func ParseDiffCheck(s string) (DiffCheck, error) {
	switch s {
	case "off", "":
		return DiffOff, nil
	case "final":
		return DiffFinal, nil
	}
	return DiffOff, fmt.Errorf("unknown diff-check mode %q (want off, final)", s)
}

// MiscompileError reports that the compiled program computes something
// different from its input. It carries the bisected attribution — the
// first pass whose output diverges semantically — and the oracle's
// witness (entry, argument vector, first observable difference). It is
// returned as the compile error in Strict mode or when degradation
// cannot quarantine the culprit; otherwise it is recorded and the
// compile retries with the culprit forced down the degradation ladder.
type MiscompileError struct {
	Pass       string             // first semantically-divergent pass ("" when bisection had no snapshots)
	Func       string             // function that pass was compiling ("" for whole-program passes)
	Divergence *oracle.Divergence // the witness
	ReproPath  string             // bundle written for it, when Config.ReproDir is set
}

func (e *MiscompileError) Error() string {
	pass := e.Pass
	if pass == "" {
		pass = "<unattributed>"
	}
	where := e.Func
	if where == "" {
		where = "<program>"
	}
	return fmt.Sprintf("pipeline: miscompile detected, first divergent pass %s on %s: %v",
		pass, where, e.Divergence)
}

// passSnap is the body of one function as one pass left it. Snapshots
// are recorded only by the attempt that reproduces a divergence to bisect
// it; applying a prefix of the ordered snapshot list to the input program
// reconstructs every intermediate compilation state, which is what
// bisection binary-searches over.
//
// Snapshots from the interprocedural barrier are recorded per function
// even though the barrier is a whole-program pass: CCM promotion assigns
// each function a region disjoint from every function it can interleave
// with, so applying a subset of the barrier's rewrites only reduces CCM
// contention and cannot itself introduce a divergence.
type passSnap struct {
	pass string
	fn   string   // function name, for attribution
	idx  int      // index into Program.Funcs
	body *ir.Func // clone taken immediately after the pass ran
}

// snapRecorder accumulates snapshots across the stages of one bisect
// attempt. Front and back slots are indexed by function so parallel
// workers write disjoint entries; the barrier appends sequentially.
type snapRecorder struct {
	front   [][]passSnap
	barrier []passSnap
	back    [][]passSnap
}

func newSnapRecorder(n int) *snapRecorder {
	return &snapRecorder{front: make([][]passSnap, n), back: make([][]passSnap, n)}
}

// add records a snapshot taken by a per-function pass of the front or
// back stage.
func (r *snapRecorder) add(back bool, s passSnap) {
	if back {
		r.back[s.idx] = append(r.back[s.idx], s)
	} else {
		r.front[s.idx] = append(r.front[s.idx], s)
	}
}

// ordered returns the deterministic global snapshot order: front
// snapshots in (function, pass) order, then barrier, then back. The order
// is the bisection axis, so it must not depend on worker scheduling.
func (r *snapRecorder) ordered() []passSnap {
	var out []passSnap
	for _, snaps := range r.front {
		out = append(out, snaps...)
	}
	out = append(out, r.barrier...)
	for _, snaps := range r.back {
		out = append(out, snaps...)
	}
	return out
}

// forcedDegrade is the quarantine the attempt loop accumulates: every
// recoverable fault and every bisected divergence strips the machinery
// its pass belongs to from its function, and the driver recompiles the
// input under it. Each escalation strictly raises a finite per-function
// lattice, so the loop terminates.
type forcedDegrade struct {
	funcs  map[string]quarantine
	noWalk bool // skip the barrier: a fault in it named no new culprit
}

// quarantine is what the attempt loop has stripped from one function,
// and why.
type quarantine struct {
	level     degradeLevel // front-stage rung to compile at
	noCCM     bool         // exclude from post-pass CCM promotion
	noCompact bool         // skip the back stage
	faults    int          // front-stage faults, for FuncReport.Attempts
	pass, err string       // the last fault or divergence escalated
}

func newForcedDegrade() *forcedDegrade {
	return &forcedDegrade{funcs: map[string]quarantine{}}
}

// escalate records the quarantine for one bisected miscompile and
// reports whether anything was left to strip. A false return means the
// divergence survived maximal degradation of its function — the compile
// must fail rather than ship wrong code.
func (fd *forcedDegrade) escalate(me *MiscompileError, cfg Config) bool {
	q := fd.funcs[me.Func]
	ok := false
	switch me.Pass {
	case PassOptimize:
		ok = q.raise(levelNoOpt) || q.raise(levelBaseline)
	case PassRegalloc:
		ok = q.raise(levelBaseline)
	case PassPostPass:
		ok, q.noCCM = !q.noCCM, true
	case PassCompact:
		ok, q.noCompact = !q.noCompact, true
	default:
		// An injected experimental pass: levelNoOpt drops all of them.
		for _, ip := range cfg.InjectFront {
			if ip.Name == me.Pass {
				ok = q.raise(levelNoOpt) || q.raise(levelBaseline)
				break
			}
		}
	}
	if !ok || me.Func == "" {
		return false
	}
	q.pass, q.err = me.Pass, "miscompile: "+me.Divergence.Detail
	fd.funcs[me.Func] = q
	return true
}

// dropRung moves fn one rung down the ladder after a front-stage fault;
// false when fn already faulted on the bottom rung.
func (fd *forcedDegrade) dropRung(fn string, cerr *CompileError) bool {
	q := fd.funcs[fn]
	if !q.raise(q.level + 1) {
		return false
	}
	q.faults++
	fd.blame(fn, q, cerr)
	return true
}

// skipCompact ships fn uncompacted after a back-stage fault. It always
// succeeds: a function already shipped uncompacted runs no back pass.
func (fd *forcedDegrade) skipCompact(fn string, cerr *CompileError) bool {
	q := fd.funcs[fn]
	q.noCompact = true
	fd.blame(fn, q, cerr)
	return true
}

// skipCCM excludes the culprit of a barrier fault from CCM promotion. A
// fault that names no new culprit excludes every function the walk would
// still promote and skips the walk, degrading the whole barrier.
func (fd *forcedDegrade) skipCCM(p *ir.Program, cerr *CompileError) {
	if q := fd.funcs[cerr.Func]; cerr.Func != "" && !q.noCCM {
		q.noCCM = true
		fd.blame(cerr.Func, q, cerr)
		return
	}
	for _, f := range p.Funcs {
		if q := fd.funcs[f.Name]; q.level < levelBaseline && !q.noCCM {
			q.noCCM = true
			fd.blame(f.Name, q, cerr)
		}
	}
	fd.noWalk = true
}

// blame stores q as fn's quarantine, with cerr as its last fault.
func (fd *forcedDegrade) blame(fn string, q quarantine, cerr *CompileError) {
	q.pass, q.err = cerr.Pass, cerr.Err.Error()
	fd.funcs[fn] = q
}

// count returns how many of p's functions ship below full fidelity.
func (fd *forcedDegrade) count(p *ir.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		if fd.funcs[f.Name].degraded() != "" {
			n++
		}
	}
	return n
}

func (q *quarantine) raise(to degradeLevel) bool {
	if to >= numLevels || q.level >= to {
		return false
	}
	q.level = to
	return true
}

// degraded names the rungs the function ships at, "" at full fidelity.
// The baseline rung is never promoted, so no-ccm adds nothing to it.
func (q quarantine) degraded() string {
	var rungs []string
	if q.level > levelFull {
		rungs = append(rungs, q.level.String())
	}
	if q.noCCM && q.level < levelBaseline {
		rungs = append(rungs, "no-ccm")
	}
	if q.noCompact {
		rungs = append(rungs, "no-compact")
	}
	return strings.Join(rungs, "+")
}

// diffOracle drives the oracle for one compile: it holds the input, the
// derived seed, and the diff counters. Everything here runs sequentially
// on the goroutine that called Compile — never inside the worker pool —
// so its results are identical for any worker count.
type diffOracle struct {
	pre  *ir.Program // the compile's input, which no pass writes
	seed uint64
	opts oracle.Options

	funcsChecked    int64
	runs            int64
	inconclusive    int64
	divergences     int64
	divergentPasses map[string]int64
}

// newDiffOracle checks against in, the compile's input, whose
// programDigest is pd. The seed comes from in's content alone, so every
// Config compiling in checks it on the same vectors and the memo serves
// the input's runs across them.
func newDiffOracle(in *ir.Program, pd digest, cfg Config, reg *obs.Registry, memo *oracle.Memo) *diffOracle {
	seed := programSeed(pd)
	return &diffOracle{
		pre:  in,
		seed: seed,
		opts: oracle.Options{
			Seed:      seed,
			Vectors:   cfg.DiffVectors,
			CCMBytes:  cfg.CCMBytes,
			Obs:       reg,
			Memo:      memo,
			PreDigest: pd,
		},
		divergentPasses: map[string]int64{},
	}
}

// errBisect is what a check returns when it finds a divergence in an
// attempt that recorded no snapshots: the driver repeats the attempt with
// snapshots on, and that attempt's check reproduces the divergence and
// bisects it.
var errBisect = errors.New("pipeline: recompile to bisect a divergence")

// check compares the input against the compiled program; nil means the
// two agree. On divergence it returns errBisect when snaps is nil, and
// otherwise bisects the snapshots to the first semantically-divergent
// pass and returns the attributed MiscompileError.
func (do *diffOracle) check(ctx context.Context, post *ir.Program, snaps *snapRecorder) (*MiscompileError, error) {
	res, err := do.run(ctx, post)
	if err != nil || res.Equivalent() {
		return nil, err
	}
	if snaps == nil {
		return nil, errBisect
	}
	do.divergences++
	me := &MiscompileError{Divergence: res.Divergence}
	me.Pass, me.Func, err = do.bisect(ctx, snaps.ordered())
	if err != nil {
		return nil, err
	}
	do.divergentPasses[histKey(me)]++
	return me, nil
}

// run checks post against the input and adds the check to the counters.
func (do *diffOracle) run(ctx context.Context, post *ir.Program) (*oracle.Result, error) {
	opts := do.opts
	opts.PostDigest = programDigest(post, nil)
	res, err := oracle.Check(ctx, do.pre, post, opts)
	if err != nil {
		return nil, err
	}
	do.funcsChecked += int64(res.Entries)
	do.runs += int64(res.Runs)
	do.inconclusive += int64(res.Inconclusive)
	return res, nil
}

// bisect binary-searches the snapshot prefix order for the first
// candidate program that diverges from the input, attributing the
// miscompile to the snapshot that tipped it. The full prefix is the
// divergent program just checked, so the invariant "hi diverges" holds
// at entry; the empty prefix is the input itself, which trivially
// agrees.
func (do *diffOracle) bisect(ctx context.Context, snaps []passSnap) (pass, fn string, err error) {
	if len(snaps) == 0 {
		return "", "", nil
	}
	lo, hi := 0, len(snaps)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		res, err := do.run(ctx, do.candidate(snaps, mid))
		if err != nil {
			return "", "", err
		}
		if res.Equivalent() {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return snaps[lo].pass, snaps[lo].fn, nil
}

// candidate reconstructs the intermediate program with snapshots [0, k]
// applied to the input. Function bodies are shared, not cloned: the
// simulator never mutates the program it resolves.
func (do *diffOracle) candidate(snaps []passSnap, k int) *ir.Program {
	cand := &ir.Program{
		Globals: do.pre.Globals,
		Funcs:   append([]*ir.Func(nil), do.pre.Funcs...),
	}
	for j := 0; j <= k; j++ {
		cand.Funcs[snaps[j].idx] = snaps[j].body
	}
	return cand
}

// histKey is the first-divergent-pass histogram bucket.
func histKey(me *MiscompileError) string {
	if me.Pass == "" {
		return "unattributed"
	}
	return me.Pass
}

// recordMiscompile writes the extended repro bundle for one detected
// divergence: both programs, the seed, and the witnessing entry, so
// Replay can re-run the exact differential check offline. sh, when
// non-nil, receives a "repro:write" span.
func (cs *compileState) recordMiscompile(me *MiscompileError, post *ir.Program, do *diffOracle, sh *obs.Shard) {
	if cs.cfg.ReproDir == "" {
		return
	}
	b := &repro.Bundle{
		Kind:    repro.KindMiscompile,
		Func:    me.Func,
		Pass:    me.Pass,
		Program: cs.in.String(),
		Post:    post.String(),
		Seed:    do.seed,
		Entry:   me.Divergence.Entry,
		Config:  marshalConfig(cs.cfg),
		Error:   me.Error(),
	}
	me.ReproPath = cs.writeRepro(b, sh)
}
