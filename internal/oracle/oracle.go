// Package oracle is the differential-execution miscompile detector: it
// runs a pre-transformation program and a post-transformation candidate
// under internal/sim on identical, deterministically derived argument
// vectors and compares everything the paper's abstract machine makes
// observable — the emit/femit trace, the entry function's return value,
// and fault behavior. The paper's claims rest on the transformed code
// being semantically identical to its input (Cooper & Harvey §3:
// "promotion preserves the values flowing through spill memory");
// executing both sides on shared inputs is the cheapest credible check of
// that property (Necula's translation validation, PLDI 2000; McKeeman's
// differential testing, DTJ 1998). Structural verification says the code
// is well-formed; this package says it still computes the same thing.
//
// Determinism: argument vectors are a pure function of (Options.Seed,
// entry name, vector index, parameter index) — no wall-clock randomness —
// so the same (pre, post, Options) triple always produces the same
// verdict, the same divergence, and the same counters, regardless of
// worker counts or scheduling in the caller.
//
// Resource limits are not divergences: a transformed program legitimately
// executes a different number of instructions, so a run that hits the
// fuel, depth, or stack bound (sim.FaultLimit) makes that vector
// inconclusive rather than a miscompile verdict. Cancellation
// (sim.FaultCancelled) aborts the check with the context's error.
package oracle

import (
	"context"
	"fmt"
	"strings"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/sim"
)

// Options parameterize one differential check.
type Options struct {
	// Seed selects the argument-vector stream. Callers key it off a
	// content hash of the input so re-checks are reproducible; 0 is a
	// valid seed.
	Seed uint64

	// Vectors is the number of argument vectors per entry function with
	// parameters (parameterless entries run once). Vector 0 is all zeros
	// and vector 1 is all ones — the classic aliasing and boundary
	// exposers — and later vectors are pseudo-random. Default 3.
	Vectors int

	// Entries lists the functions to execute as entry points. Empty means
	// every function present in both programs, in pre-program order —
	// leaf functions included, which catches miscompiles main's
	// computation never reaches.
	Entries []string

	// MaxSteps and MaxDepth bound each run (defaults 2M and 256); a run
	// that exceeds them is inconclusive, not divergent. Both programs get
	// identical limits.
	MaxSteps int64
	MaxDepth int

	// CCMBytes sizes the CCM for both runs. 0 derives a sufficient
	// capacity from the larger CCM footprint of the two programs, so a
	// post-promotion candidate never faults on a missing CCM.
	CCMBytes int64

	// Obs, when non-nil, receives the check's counters (oracle.entries,
	// oracle.runs, oracle.inconclusive, oracle.divergences). The verdict
	// and counters are deterministic, so the totals are too. With a Memo
	// it also receives oracle.memo_hits and oracle.memo_misses, which
	// depend on what earlier checks sharing the memo stored.
	Obs *obs.Registry

	// Memo, when non-nil, serves every run an earlier check or Memo.Run
	// already made instead of simulating it again; a hit counts as the
	// run it replaces, and a program is resolved only at its first miss.
	// PreDigest and PostDigest identify the two programs' content for its
	// key: equal digests must mean equal programs.
	Memo                  *Memo
	PreDigest, PostDigest [32]byte
}

func (o Options) withDefaults(pre, post *ir.Program) Options {
	if o.Vectors == 0 {
		o.Vectors = 3
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 2_000_000
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 256
	}
	if o.CCMBytes == 0 {
		o.CCMBytes = maxCCMFootprint(pre, post)
	}
	return o
}

// Divergence describes the first observed behavioral difference.
type Divergence struct {
	Entry  string      // entry function whose execution diverged
	Vector int         // argument-vector index
	Args   []sim.Value // the arguments of that vector
	Kind   string      // "trace", "ret", or "fault"
	Detail string      // human-readable first difference
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle: %s divergence at %s vector %d (args %s): %s",
		d.Kind, d.Entry, d.Vector, formatArgs(d.Args), d.Detail)
}

// Result summarizes one Check.
type Result struct {
	Entries      int         // entry functions executed
	Runs         int         // (entry, vector) pairs executed on both sides
	Inconclusive int         // runs skipped because either side hit a resource limit
	Divergence   *Divergence // nil when all conclusive runs agreed
}

// Equivalent reports whether the check found no divergence.
func (r *Result) Equivalent() bool { return r.Divergence == nil }

// Check runs pre and post on shared argument vectors and compares their
// observable behavior, stopping at the first divergence. Both programs
// must be executable (phi-free, verified); pre and post must declare the
// same entry signatures, which every pipeline stage preserves.
func Check(ctx context.Context, pre, post *ir.Program, opts Options) (*Result, error) {
	opts = opts.withDefaults(pre, post)
	cfg := sim.Config{
		CCMBytes: opts.CCMBytes,
		MaxSteps: opts.MaxSteps,
		MaxDepth: opts.MaxDepth,
	}
	// The configuration is checked on every call, and each program is
	// resolved at its first memo miss: a program the simulator rejects has
	// no run in the memo, so it fails the check either way.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("oracle: resolving pre program: %w", err)
	}
	cfg = cfg.WithDefaults()
	preS := side{name: "pre", p: pre, cfg: cfg, memo: opts.Memo}
	postS := side{name: "post", p: post, cfg: cfg, memo: opts.Memo}
	if opts.Memo != nil {
		preS.key = newMemoKey(opts.PreDigest, pre, cfg)
		postS.key = newMemoKey(opts.PostDigest, post, cfg)
	}

	entries := opts.Entries
	if len(entries) == 0 {
		for _, f := range pre.Funcs {
			if post.Func(f.Name) != nil {
				entries = append(entries, f.Name)
			}
		}
	}

	res := &Result{}
	// Counters are published once per Check on the conclusive paths
	// (error returns publish nothing: the check didn't finish).
	publish := func() {
		if opts.Obs == nil {
			return
		}
		opts.Obs.Counter("oracle.entries").Add(int64(res.Entries))
		opts.Obs.Counter("oracle.runs").Add(int64(res.Runs))
		opts.Obs.Counter("oracle.inconclusive").Add(int64(res.Inconclusive))
		if res.Divergence != nil {
			opts.Obs.Counter("oracle.divergences").Inc()
		}
		if opts.Memo != nil {
			opts.Obs.Counter("oracle.memo_hits").Add(preS.hits + postS.hits)
			opts.Obs.Counter("oracle.memo_misses").Add(preS.misses + postS.misses)
		}
	}
	for _, entry := range entries {
		ef := pre.Func(entry)
		pf := post.Func(entry)
		if ef == nil || pf == nil {
			return nil, fmt.Errorf("oracle: entry %q missing from %s program",
				entry, map[bool]string{true: "pre", false: "post"}[ef == nil])
		}
		if len(ef.Params) != len(pf.Params) {
			return nil, fmt.Errorf("oracle: entry %q arity changed from %d to %d parameters",
				entry, len(ef.Params), len(pf.Params))
		}
		res.Entries++
		nvec := opts.Vectors
		if len(ef.Params) == 0 {
			nvec = 1 // no arguments to vary
		}
		for v := 0; v < nvec; v++ {
			args := argVector(opts.Seed, entry, v, ef)
			preObs, err := preS.observe(ctx, entry, args)
			if err != nil {
				return nil, err
			}
			postObs, err := postS.observe(ctx, entry, args)
			if err != nil {
				return nil, err
			}
			if preObs.limited() || postObs.limited() {
				res.Inconclusive++
				continue
			}
			res.Runs++
			if d := compare(preObs, postObs); d != "" {
				kind := "trace"
				if strings.HasPrefix(d, "ret") {
					kind = "ret"
				} else if strings.HasPrefix(d, "fault") {
					kind = "fault"
				}
				res.Divergence = &Divergence{
					Entry:  entry,
					Vector: v,
					Args:   args,
					Kind:   kind,
					Detail: d,
				}
				publish()
				return res, nil
			}
		}
	}
	publish()
	return res, nil
}

// side is one program of a check: its memo key with the entry and
// arguments still blank, and its machine, resolved at the first run the
// memo does not serve.
type side struct {
	name         string // "pre" or "post"
	p            *ir.Program
	cfg          sim.Config // with defaults applied
	memo         *Memo
	key          memoKey
	m            *sim.Machine
	hits, misses int64
}

// observe runs entry on args, or serves the run from the memo. A
// cancelled or unrunnable run aborts the check with an error.
func (s *side) observe(ctx context.Context, entry string, args []sim.Value) (*run, error) {
	k := s.key
	if s.memo != nil {
		k.entry, k.args = entry, argKey(args)
		if r, ok := s.memo.get(k, s.cfg.MaxSteps, s.cfg.MaxDepth); ok {
			s.hits++
			return r, nil
		}
		s.misses++
	}
	if s.m == nil {
		m, err := sim.New(s.p, s.cfg)
		if err != nil {
			return nil, fmt.Errorf("oracle: resolving %s program: %w", s.name, err)
		}
		s.m = m
	}
	r, err := simulate(ctx, s.m, s.cfg, entry, args)
	if err != nil {
		f, ok := err.(*sim.Fault)
		if !ok {
			return nil, fmt.Errorf("oracle: executing %s: %w", entry, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("oracle: %w", cerr)
		}
		return nil, fmt.Errorf("oracle: %w", f)
	}
	if s.memo != nil {
		s.memo.put(k, r)
	}
	return r, nil
}

// compare returns "" when the two observations are behaviorally equal, or
// a description of the first difference. Fault equivalence is positional:
// both sides must fault or neither — the fault's message and location may
// legitimately differ, since the transformed code faults from rewritten
// instructions. Output emitted before a shared fault is still observable
// and must match.
func compare(pre, post *run) string {
	if (pre.fault != nil) != (post.fault != nil) {
		if pre.fault != nil {
			return fmt.Sprintf("fault only in pre (%v); post terminated cleanly", pre.fault)
		}
		return fmt.Sprintf("fault only in post (%v); pre terminated cleanly", post.fault)
	}
	a, b := pre.st, post.st
	if len(a.Output) != len(b.Output) {
		return fmt.Sprintf("trace length %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return fmt.Sprintf("trace[%d] = %s vs %s", i, a.Output[i], b.Output[i])
		}
	}
	if pre.fault != nil {
		return "" // both faulted with identical partial traces
	}
	if a.HasRet != b.HasRet {
		return fmt.Sprintf("ret present=%v vs %v", a.HasRet, b.HasRet)
	}
	if a.HasRet && a.Ret != b.Ret {
		return fmt.Sprintf("ret %s vs %s", a.Ret, b.Ret)
	}
	return ""
}

// argVector derives the v-th deterministic argument vector for entry.
// Vector 0 is all zeros, vector 1 all ones; later vectors draw from a
// splitmix64 stream keyed by (seed, entry, v, param index), yielding
// small signed integers and small floats — the ranges loop bounds and
// address arithmetic in the workloads actually exercise.
func argVector(seed uint64, entry string, v int, f *ir.Func) []sim.Value {
	args := make([]sim.Value, len(f.Params))
	for i, p := range f.Params {
		isFloat := f.RegClass(p) == ir.ClassFloat
		switch v {
		case 0:
			if isFloat {
				args[i] = sim.FloatValue(0)
			} else {
				args[i] = sim.IntValue(0)
			}
		case 1:
			if isFloat {
				args[i] = sim.FloatValue(1)
			} else {
				args[i] = sim.IntValue(1)
			}
		default:
			x := splitmix64(seed ^ strhash(entry) ^ uint64(v)<<32 ^ uint64(i)<<16)
			if isFloat {
				args[i] = sim.FloatValue(float64(int64(x%2048)-1024) / 16.0)
			} else {
				args[i] = sim.IntValue(int64(x%1021) - 510)
			}
		}
	}
	return args
}

// splitmix64 is the standard 64-bit finalizer-based mixer (Vigna): a
// bijective scramble good enough to decorrelate vector indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// strhash is FNV-1a, inlined to keep the package dependency-free.
func strhash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// maxCCMFootprint scans both programs for the highest CCM offset touched
// and returns a capacity covering it, so a derived-default check never
// faults on CCM bounds that the compiler itself respected.
func maxCCMFootprint(progs ...*ir.Program) int64 {
	var max int64
	for _, p := range progs {
		for _, f := range p.Funcs {
			if f.CCMBytes > max {
				max = f.CCMBytes
			}
			f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
				if in.Op.IsCCMOp() && in.Imm+ir.WordBytes > max {
					max = in.Imm + ir.WordBytes
				}
			})
		}
	}
	if rem := max % ir.WordBytes; rem != 0 {
		max += ir.WordBytes - rem // sim requires a word-aligned capacity
	}
	return max
}

func formatArgs(args []sim.Value) string {
	if len(args) == 0 {
		return "none"
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
