package pipeline

import (
	"sync"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// suiteInputs builds every routine and program of the evaluation suite.
func suiteInputs(tb testing.TB) []*ir.Program {
	tb.Helper()
	var inputs []*ir.Program
	for _, r := range workload.All() {
		p, err := r.Build()
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, p)
	}
	for _, bp := range workload.Programs() {
		p, err := bp.Build()
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, p)
	}
	return inputs
}

// freshDigest is p's programDigest with every function encoded again:
// clones keep no digest.
func freshDigest(p *ir.Program) digest {
	q := &ir.Program{Globals: p.Globals}
	for _, f := range p.Funcs {
		q.Funcs = append(q.Funcs, f.Clone())
	}
	return programDigest(q, nil)
}

// checkCarriedDigests compiles each input under each config through drv
// and checks the program digest each report carries (a program hit's is
// its program artifact's), then the digest each back artifact's frozen
// function in drv's memory tier keeps, against fresh ones. A zero
// digest is one not carried. It returns how many reports carried a
// digest and how many back artifacts kept one.
func checkCarriedDigests(t *testing.T, what string, drv *Driver, inputs []*ir.Program, cfgs []Config) (reps, backs int) {
	t.Helper()
	for _, in := range inputs {
		for _, cfg := range cfgs {
			p := &ir.Program{Globals: in.Globals, Funcs: append([]*ir.Func(nil), in.Funcs...)}
			rep, err := drv.Compile(p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if rep.digest == (digest{}) {
				continue
			}
			reps++
			if want := freshDigest(p); rep.digest != want {
				t.Errorf("%s: %s under %v/%d (program hit %v): the report carries digest %x, want %x",
					what, p.Funcs[0].Name, cfg.Strategy, cfg.CCMBytes, rep.ProgramCacheHit, rep.digest[:6], want[:6])
			}
		}
	}
	c := drv.Cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		a, ok := e.Value.(*cacheItem).val.(*backArtifact)
		if !ok {
			continue
		}
		if d, kept := a.fn.KeptDigest(); kept {
			backs++
			if d != funcDigest(a.fn.Clone()) {
				t.Errorf("%s: the back artifact of %s keeps a stale digest", what, a.fn.Name)
			}
		}
	}
	return reps, backs
}

// TestCarriedDigests: the digests a compile keeps instead of
// re-encoding functions (each back artifact's frozen function's, and the
// report's program digest, which the oracle and Driver.Run key runs by
// and a program artifact keeps) equal fresh funcDigest and programDigest
// values. The suite is compiled under every strategy with compaction on
// and off, cold and then from the program tier, and every report must
// carry a digest and some back artifacts keep one. A sample is then read
// back from disk: decoded program artifacts carry none, and a checked
// compile on the filled directory, which misses the program tier, finds
// no function artifact there (those live in memory alone) and carries
// every digest.
func TestCarriedDigests(t *testing.T) {
	inputs := suiteInputs(t)
	var cfgs []Config
	for _, s := range []Strategy{NoCCM, PostPass, PostPassInterproc, Integrated} {
		for _, compactOff := range []bool{false, true} {
			cfg := Config{Strategy: s, DisableCompaction: compactOff, DiffCheck: DiffFinal, Strict: true}
			if s != NoCCM {
				cfg.CCMBytes = 512
			}
			cfgs = append(cfgs, cfg)
		}
	}
	drv := New(Options{Workers: 2})
	compiles := len(inputs) * len(cfgs)
	for _, what := range []string{"cold", "program tier"} {
		if reps, backs := checkCarriedDigests(t, what, drv, inputs, cfgs); reps != compiles || backs == 0 {
			t.Errorf("%s: %d of %d reports and %d back artifacts carried a digest", what, reps, compiles, backs)
		}
	}

	dir := t.TempDir()
	sample := inputs[:6]
	for i := range cfgs {
		cfgs[i].DiffCheck = DiffOff
	}
	checkCarriedDigests(t, "disk fill", New(Options{CacheDir: dir}), sample, cfgs)
	if reps, backs := checkCarriedDigests(t, "disk program hits", New(Options{CacheDir: dir}), sample, cfgs); reps != 0 || backs != 0 {
		t.Errorf("program hits decoded from disk: %d reports and %d back artifacts carried a digest, want none", reps, backs)
	}
	for i := range cfgs {
		cfgs[i].DiffCheck = DiffFinal
	}
	if reps, _ := checkCarriedDigests(t, "disk program misses", New(Options{CacheDir: dir}), sample, cfgs); reps != len(sample)*len(cfgs) {
		t.Errorf("program misses on a filled disk: %d of %d reports carried a digest", reps, len(sample)*len(cfgs))
	}
}

// TestFuncDigestKept: a frozen function keeps its digest and a mutable
// one does not. A mutable function rewritten after it was digested
// digests differently. Goroutines digesting a frozen function for the
// first time at once all get its content's digest (the race detector
// checks the slot), and a clone of the digested function keeps none but
// digests the same.
func TestFuncDigestKept(t *testing.T) {
	f := keyProgram().Funcs[0]
	before := funcDigest(f)
	if _, kept := f.KeptDigest(); kept {
		t.Fatal("a mutable function kept its digest")
	}
	f.Blocks[0].Instrs[0].Imm++
	after := funcDigest(f)
	if after == before {
		t.Fatal("rewriting a mutable function after digesting it left its digest unchanged")
	}

	f.Freeze()
	var wg sync.WaitGroup
	got := make([]digest, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = funcDigest(f)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != after {
			t.Errorf("goroutine %d digested the frozen function as %x, want %x", i, d[:6], after[:6])
		}
	}
	if d, kept := f.KeptDigest(); !kept || d != after {
		t.Errorf("the frozen function keeps %x (kept %v), want %x", d[:6], kept, after[:6])
	}
	c := f.Clone()
	if _, kept := c.KeptDigest(); kept || c.Frozen() {
		t.Error("a clone of a digested frozen function kept its digest or its frozen flag")
	}
	if d := funcDigest(c); d != after {
		t.Errorf("the clone digests as %x, want %x", d[:6], after[:6])
	}
}
