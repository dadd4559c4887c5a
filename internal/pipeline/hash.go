package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"ccmem/internal/ir"
)

// Key-space version tags. Every digest and key is SHA-256 over its tag
// and the codec's encoding (codecv2.go's bw) of what it addresses, so
// the encoding of a function is decided in one place. Bump a tag when
// that encoding or the semantics of a stage change, so stale artifacts
// from an older scheme can never be returned (relevant only to
// long-lived shared caches).
const (
	frontKeyTag   = "ccm-pipeline-front-v4" // v4: over the codec's encoding
	backKeyTag    = "ccm-pipeline-back-v5"  // v5: over the codec's encoding
	programKeyTag = "ccm-pipeline-prog-v6"  // v6: over the codec's encoding

	funcDigestTag    = "ccm-pipeline-func-v2"   // v2: the codec's encoding of the function
	programDigestTag = "ccm-pipeline-digest-v3" // v3: over the codec's encoding
)

// hashChunk is how many encoded bytes a hashing writer stages before it
// writes them to SHA-256: one Write per chunk, not per field.
const hashChunk = 4096

// hashWriters pools hashing writers; newHashWriter takes one and sum
// returns it. The staging buffer has room for a chunk plus the list
// element that crosses it, so only an element longer than a chunk (a
// name of kilobytes) grows it.
var hashWriters = sync.Pool{New: func() any {
	return &bw{b: make([]byte, 0, 2*hashChunk), h: sha256.New()}
}}

// newHashWriter returns a pooled hashing writer that has written tag.
func newHashWriter(tag string) *bw {
	w := hashWriters.Get().(*bw)
	w.h.Reset()
	w.b = w.b[:0]
	w.str(tag)
	return w
}

// sum finishes a hashing writer's hash and returns it to the pool. The
// digest is summed into the staging buffer, which is free by then.
func (w *bw) sum() (d digest) {
	w.h.Write(w.b)
	copy(d[:], w.h.Sum(w.b[:0]))
	hashWriters.Put(w)
	return d
}

// sub writes the digest of a part, fixed-size and so unprefixed.
func (w *bw) sub(d digest) { w.b = append(w.b, d[:]...) }

// funcDigest addresses a function's content alone: SHA-256 over the
// codec's encoding of it, which carries every field of f that influences
// compilation or the printed ILOC text — including diagnostic register
// names, which appear in the output and must therefore distinguish
// artifacts. Every key of a per-function stage is derived from the
// digest of the function that stage compiles. A frozen function keeps
// its digest (ir.Func.KeepDigest), so it is encoded once per process
// however many compiles, keys and runs digest it; a mutable one is
// encoded every time.
func funcDigest(f *ir.Func) digest {
	if d, ok := f.KeptDigest(); ok {
		return d
	}
	w := newHashWriter(funcDigestTag)
	w.fn(f)
	d := w.sum()
	f.KeepDigest(d)
	return d
}

// programDigest addresses a program's content alone, with no Config: its
// globals and the digests of its functions in order. When fds is non-nil
// (len(fds) == len(p.Funcs)) it carries the function digests: a non-zero
// fds[i] is taken as p.Funcs[i]'s digest, and a zero one is computed and
// written back. So one walk of the input yields the program digest, and
// with it the program key and the oracle's seed, and every front key, and
// a recompile reads a mutable input's digests from fds. The memo of
// simulator runs keys every run by the digest of the program it runs.
func programDigest(p *ir.Program, fds []digest) digest {
	w := newHashWriter(programDigestTag)
	w.u32(uint32(len(p.Globals)))
	for _, g := range p.Globals {
		w.str(g.Name)
		w.i64(int64(g.Words))
		w.u32(uint32(len(g.Init)))
		for _, v := range g.Init {
			w.u64(v)
			w.spill()
		}
	}
	w.u32(uint32(len(p.Funcs)))
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
		w.sub(fd)
		w.spill()
	}
	return w.sum()
}

// frontKey addresses a function's front-stage artifact by the digest of
// the input function. Strategy enters only through the integrated CCM
// capacity: the baseline and both post-pass strategies run an identical
// front stage, so their sweeps share artifacts.
func frontKey(fd digest, cfg Config) digest {
	w := newHashWriter(frontKeyTag)
	w.bool(cfg.DisableOptimizer)
	w.i64(int64(cfg.IntRegs))
	w.i64(int64(cfg.FloatRegs))
	if cfg.Strategy == Integrated {
		w.i64(cfg.CCMBytes)
	} else {
		w.i64(0)
	}
	// Verified and unverified artifacts are kept apart: a VerifyPasses
	// compile must never be satisfied by an artifact that skipped its
	// checkpoints.
	w.bool(cfg.VerifyPasses)
	w.sub(fd)
	return w.sum()
}

// backKey addresses a function's back-stage artifact, keyed by the
// post-barrier function content so promotion changes invalidate exactly
// the functions they rewrote.
func backKey(f *ir.Func, cfg Config) digest {
	fd := funcDigest(f)
	w := newHashWriter(backKeyTag)
	w.bool(cfg.DisableCompaction)
	w.bool(cfg.VerifyPasses)
	w.sub(fd)
	return w.sum()
}

// programKey addresses a whole compiled program, by its programDigest pd,
// under the full Config.
func programKey(pd digest, cfg Config) digest {
	w := newHashWriter(programKeyTag)
	w.i64(int64(cfg.Strategy))
	w.i64(cfg.CCMBytes)
	w.i64(int64(cfg.IntRegs))
	w.i64(int64(cfg.FloatRegs))
	w.bool(cfg.DisableOptimizer)
	w.bool(cfg.DisableCompaction)
	w.bool(cfg.VerifyPasses)
	// Differential checking can change the shipped program (divergence
	// quarantine degrades functions), so checked and unchecked compiles
	// must not share artifacts.
	w.i64(int64(cfg.DiffCheck))
	w.i64(int64(cfg.DiffVectors))
	w.sub(pd)
	return w.sum()
}

// programSeed derives the differential oracle's argument-vector seed
// from the input's programDigest: every compile of one input, under any
// Config, replays identical vectors, with no wall-clock randomness
// anywhere.
func programSeed(k digest) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}
