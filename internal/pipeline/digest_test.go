package pipeline

import (
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

// checkCarriedDigests compiles each input under each config through drv
// and checks the program digest each report carries (a program hit's is
// its program artifact's), then the digest each back artifact in drv's
// memory tier carries, against fresh ones. A zero digest is one not
// carried. It returns how many reports and back artifacts carried one.
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
			if want := programDigest(p, nil); rep.digest != want {
				t.Errorf("%s: %s under %v/%d (program hit %v): the report carries digest %x, want %x",
					what, p.Funcs[0].Name, cfg.Strategy, cfg.CCMBytes, rep.ProgramCacheHit, rep.digest[:6], want[:6])
			}
		}
	}
	c := drv.Cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if a, ok := e.Value.(*cacheItem).val.(*backArtifact); ok && a.digest != (digest{}) {
			backs++
			if a.digest != funcDigest(a.fn) {
				t.Errorf("%s: the back artifact of %s carries a stale digest", what, a.fn.Name)
			}
		}
	}
	return reps, backs
}

// TestCarriedDigests: the digests a compile carries instead of
// re-encoding functions (each back artifact's, and the report's program
// digest, which the oracle and Driver.Run key runs by and a program
// artifact keeps) equal fresh funcDigest and programDigest values. The
// suite is compiled under every strategy with compaction on and off,
// cold and then from the program tier, and every report and back
// artifact must carry a digest. A sample is then read back from disk:
// decoded program artifacts carry none, and a checked compile on the
// filled directory, which misses the program tier, finds no function
// artifact there (those live in memory alone) and carries every digest.
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
