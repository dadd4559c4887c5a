package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"ccmem/internal/ir"
)

// Key-space version tags. Bump when the encoding below or the semantics
// of a stage change, so stale artifacts from an older scheme can never be
// returned (relevant only to long-lived shared caches).
const (
	frontKeyTag   = "ccm-pipeline-front-v3" // v3: over the function digest
	backKeyTag    = "ccm-pipeline-back-v4"  // v4: over the function digest
	programKeyTag = "ccm-pipeline-prog-v5"  // v5: over the program digest

	funcDigestTag    = "ccm-pipeline-func-v1"
	programDigestTag = "ccm-pipeline-digest-v2" // v2: over the function digests
)

// hasher streams a canonical binary encoding of IR and Config into
// SHA-256. Every variable-length field is length-prefixed, so distinct
// inputs cannot collide by concatenation. The encoding is staged in buf
// and written to SHA-256 a buffer at a time, so a field costs no Write
// call and a string no allocation; SHA-256 does not see the chunking.
// Hashers are pooled: newHasher takes one and sum returns it.
type hasher struct {
	h   hash.Hash
	n   int // bytes staged in buf
	buf [1024]byte
	out [sha256.Size]byte
}

var hashers = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

func newHasher(tag string) *hasher {
	h := hashers.Get().(*hasher)
	h.h.Reset()
	h.n = 0
	h.str(tag)
	return h
}

func (h *hasher) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

func (h *hasher) u64(v uint64) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
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
	for {
		c := copy(h.buf[h.n:], s)
		h.n += c
		if s = s[c:]; s == "" {
			return
		}
		h.flush()
	}
}

// sub encodes the content digest of a part, fixed-size and so unprefixed.
func (h *hasher) sub(d digest) {
	if h.n+len(d) > len(h.buf) {
		h.flush()
	}
	h.n += copy(h.buf[h.n:], d[:])
}

// sum finishes the hash and returns h to the pool.
func (h *hasher) sum() digest {
	h.flush()
	var d digest
	copy(d[:], h.h.Sum(h.out[:0]))
	hashers.Put(h)
	return d
}

// funcDigest addresses a function's content alone. It encodes every field
// of f that influences compilation or the printed ILOC text — including
// diagnostic register names, which appear in the output and must
// therefore distinguish artifacts. Every key of a per-function stage is
// derived from the digest of the function that stage compiles.
func funcDigest(f *ir.Func) digest {
	h := newHasher(funcDigestTag)
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
	return h.sum()
}

// programDigest addresses a program's content alone, with no Config: its
// globals and the digests of its functions in order. When fds is non-nil
// (len(fds) == len(p.Funcs)) it carries the function digests: a non-zero
// fds[i] is taken as p.Funcs[i]'s digest, and a zero one is computed and
// written back. So one walk of the input yields the program digest, and
// with it the program key and the oracle's seed, and every front key; and
// a compiled program is digested from the digests its back artifacts
// carry, re-encoding only functions that arrived without one. The memo of
// simulator runs keys every run by the digest of the program it runs.
func programDigest(p *ir.Program, fds []digest) digest {
	h := newHasher(programDigestTag)
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
	for i, f := range p.Funcs {
		var fd digest
		if fds != nil {
			fd = fds[i]
		}
		if fd == (digest{}) {
			fd = funcDigest(f)
			if fds != nil {
				fds[i] = fd
			}
		}
		h.sub(fd)
	}
	return h.sum()
}

// frontKey addresses a function's front-stage artifact by the digest of
// the input function. Strategy enters only through the integrated CCM
// capacity: the baseline and both post-pass strategies run an identical
// front stage, so their sweeps share artifacts.
func frontKey(fd digest, cfg Config) digest {
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
	h.sub(fd)
	return h.sum()
}

// backKey addresses a function's back-stage artifact, keyed by the
// post-barrier function content so promotion changes invalidate exactly
// the functions they rewrote.
func backKey(f *ir.Func, cfg Config) digest {
	fd := funcDigest(f)
	h := newHasher(backKeyTag)
	h.bool(cfg.DisableCompaction)
	h.bool(cfg.VerifyPasses)
	h.sub(fd)
	return h.sum()
}

// programKey addresses a whole compiled program, by its programDigest pd,
// under the full Config.
func programKey(pd digest, cfg Config) digest {
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
	h.sub(pd)
	return h.sum()
}

// programSeed derives the differential oracle's argument-vector seed
// from the input's programDigest: every compile of one input, under any
// Config, replays identical vectors, with no wall-clock randomness
// anywhere.
func programSeed(k digest) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}
