package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"ccmem/internal/ir"
)

// Key-space version tags. Bump when the encoding below or the semantics
// of a stage change, so stale artifacts from an older scheme can never be
// returned (relevant only to long-lived shared caches).
const (
	frontKeyTag   = "ccm-pipeline-front-v2"
	backKeyTag    = "ccm-pipeline-back-v3" // v3: the cleanup flag left the key
	programKeyTag = "ccm-pipeline-prog-v4" // v4: the cleanup flag left the key

	programDigestTag = "ccm-pipeline-digest-v1"
)

// hasher streams a canonical binary encoding of IR and Config into
// SHA-256. Every variable-length field is length-prefixed, so distinct
// inputs cannot collide by concatenation.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher(tag string) *hasher {
	h := &hasher{h: sha256.New()}
	h.str(tag)
	return h
}

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }
func (h *hasher) int(v int)   { h.u64(uint64(int64(v))) }

func (h *hasher) bool(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) str(s string) {
	h.int(len(s))
	h.h.Write([]byte(s))
}

func (h *hasher) sum() digest {
	var d digest
	copy(d[:], h.h.Sum(nil))
	return d
}

// fn encodes every field of f that influences compilation or the printed
// ILOC text — including diagnostic register names, which appear in the
// output and must therefore distinguish artifacts.
func (h *hasher) fn(f *ir.Func) {
	h.str(f.Name)
	h.int(len(f.Params))
	for _, r := range f.Params {
		h.i64(int64(r))
	}
	h.int(int(f.RetClass))
	h.int(len(f.Regs))
	for _, ri := range f.Regs {
		h.int(int(ri.Class))
		h.str(ri.Name)
	}
	h.bool(f.Allocated)
	h.int(f.NumInt)
	h.int(f.NumFloat)
	h.i64(f.FrameBytes)
	h.i64(f.CCMBytes)
	h.int(len(f.Blocks))
	for _, b := range f.Blocks {
		h.str(b.Name)
		h.int(len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			h.int(int(in.Op))
			h.i64(int64(in.Dst))
			h.int(len(in.Args))
			for _, a := range in.Args {
				h.i64(int64(a))
			}
			h.i64(in.Imm)
			h.u64(math.Float64bits(in.FImm))
			h.str(in.Sym)
			h.str(in.Then)
			h.str(in.Else)
		}
	}
}

// frontKey addresses a function's front-stage artifact. Strategy enters
// only through the integrated CCM capacity: the baseline and both
// post-pass strategies run an identical front stage, so their sweeps
// share artifacts.
func frontKey(f *ir.Func, cfg Config) digest {
	h := newHasher(frontKeyTag)
	h.bool(cfg.DisableOptimizer)
	h.int(cfg.IntRegs)
	h.int(cfg.FloatRegs)
	if cfg.Strategy == Integrated {
		h.i64(cfg.CCMBytes)
	} else {
		h.i64(0)
	}
	// Verified and unverified artifacts are kept apart: a VerifyPasses
	// compile must never be satisfied by an artifact that skipped its
	// checkpoints.
	h.bool(cfg.VerifyPasses)
	h.fn(f)
	return h.sum()
}

// backKey addresses a function's back-stage artifact, keyed by the
// post-barrier function content so promotion changes invalidate exactly
// the functions they rewrote.
func backKey(f *ir.Func, cfg Config) digest {
	h := newHasher(backKeyTag)
	h.bool(cfg.DisableCompaction)
	h.bool(cfg.VerifyPasses)
	h.fn(f)
	return h.sum()
}

// programKey addresses a whole compiled program under the full Config.
func programKey(p *ir.Program, cfg Config) digest {
	h := newHasher(programKeyTag)
	h.int(int(cfg.Strategy))
	h.i64(cfg.CCMBytes)
	h.int(cfg.IntRegs)
	h.int(cfg.FloatRegs)
	h.bool(cfg.DisableOptimizer)
	h.bool(cfg.DisableCompaction)
	h.bool(cfg.VerifyPasses)
	// Differential checking can change the shipped program (divergence
	// quarantine degrades functions), so checked and unchecked compiles
	// must not share artifacts.
	h.int(int(cfg.DiffCheck))
	h.int(cfg.DiffVectors)
	h.program(p)
	return h.sum()
}

// programDigest addresses a program's content alone, with no Config: the
// differential oracle seeds its argument vectors from the input's digest
// and keys its observation memo by the digest of each program it runs.
func programDigest(p *ir.Program) digest {
	h := newHasher(programDigestTag)
	h.program(p)
	return h.sum()
}

// program encodes the globals and every function of p.
func (h *hasher) program(p *ir.Program) {
	h.int(len(p.Globals))
	for _, g := range p.Globals {
		h.str(g.Name)
		h.int(g.Words)
		h.int(len(g.Init))
		for _, w := range g.Init {
			h.u64(w)
		}
	}
	h.int(len(p.Funcs))
	for _, f := range p.Funcs {
		h.fn(f)
	}
}

// programSeed derives the differential oracle's argument-vector seed
// from the input's programDigest: every compile of one input, under any
// Config, replays identical vectors, with no wall-clock randomness
// anywhere.
func programSeed(k digest) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}
