package oracle

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"reflect"
	"testing"

	"ccmem/internal/core"
	"ccmem/internal/ir"
	"ccmem/internal/memsys"
	"ccmem/internal/obs"
	"ccmem/internal/regalloc"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

func digestOf(p *ir.Program) [32]byte { return sha256.Sum256([]byte(p.String())) }

// withMemo returns opts checking pre and post through memo.
func withMemo(opts Options, memo *Memo, pre, post *ir.Program) Options {
	opts.Memo, opts.PreDigest, opts.PostDigest = memo, digestOf(pre), digestOf(post)
	return opts
}

// TestMemoMatchesFreshRuns: a check through a cold memo and again
// through the warm one returns exactly the Result of a check with no
// memo, for random programs against their spilled and CCM-promoted
// forms, and for a miscompile only the all-ones vector exposes. The CCM
// sizes include ones below the promoted footprint (fault divergences)
// and the step bounds include one that cuts runs short (inconclusive
// runs).
func TestMemoMatchesFreshRuns(t *testing.T) {
	var pairs [][2]*ir.Program
	for seed := int64(1); seed <= 6; seed++ {
		pre := workload.RandomProgram(seed)
		post := pre.Clone()
		for _, f := range post.Funcs {
			if _, err := regalloc.Allocate(f, regalloc.Options{IntRegs: 6, FloatRegs: 6}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := core.PostPass(post, core.PostPassOptions{CCMBytes: 256, Interprocedural: true}); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]*ir.Program{pre, post})
	}
	leaf := mustParse(t, `func f(r0) int {
entry:
	r1 = add r0, r0
	ret r1
}
`)
	sub := leaf.Clone()
	sub.Funcs[0].Blocks[0].Instrs[0].Op = ir.OpSub // equal only on zeros
	pairs = append(pairs, [2]*ir.Program{leaf, sub})

	memo := NewMemo()
	reg := obs.NewRegistry()
	var faults, limited int
	for i, pair := range pairs {
		pre, post := pair[0], pair[1]
		for _, ccm := range []int64{0, 8, 64, 256, 1024} {
			for _, steps := range []int64{0, 300} {
				opts := Options{Seed: uint64(i), CCMBytes: ccm, MaxSteps: steps}
				want := mustCheck(t, pre, post, opts)
				if want.Divergence != nil && want.Divergence.Kind == "fault" {
					faults++
				}
				limited += want.Inconclusive
				opts = withMemo(opts, memo, pre, post)
				opts.Obs = reg
				for _, warmth := range []string{"cold", "warm"} {
					if got := mustCheck(t, pre, post, opts); !reflect.DeepEqual(got, want) {
						t.Errorf("pair %d, CCM %d, steps %d, %s memo:\n got %+v\nwant %+v", i, ccm, steps, warmth, got, want)
					}
				}
			}
		}
	}
	if faults == 0 || limited == 0 {
		t.Fatalf("matrix saw %d fault divergences and %d inconclusive runs; it must see both", faults, limited)
	}
	if reg.Counter("oracle.memo_hits").Value() == 0 {
		t.Error("the warm checks never hit the memo")
	}
}

// TestMemoCCMBoundary: a program whose CCM footprint is 512 B runs
// cleanly at 1024 B and faults at 256 B. Through one memo, the 256 B
// check must still see the fault: the CCM term of the key keeps the run
// at 1024 B from standing in for it.
func TestMemoCCMBoundary(t *testing.T) {
	pre := mustParse(t, `func main() {
entry:
	r0 = loadi 9
	spill r0, 0
	r1 = restore 0
	emit r1
	ret
}
`)
	post := mustParse(t, `func main() {
entry:
	r0 = loadi 9
	ccmspill r0, 504
	r1 = ccmrestore 504
	emit r1
	ret
}
`)
	memo := NewMemo()
	if res := mustCheck(t, pre, post, withMemo(Options{CCMBytes: 1024}, memo, pre, post)); !res.Equivalent() {
		t.Fatalf("1024 B: %v", res.Divergence)
	}
	res := mustCheck(t, pre, post, withMemo(Options{CCMBytes: 256}, memo, pre, post))
	if res.Divergence == nil || res.Divergence.Kind != "fault" {
		t.Fatalf("256 B: divergence %+v, want the post program's CCM fault", res.Divergence)
	}
	// 512 B covers the footprint, so it shares the 1024 B observation.
	reg := obs.NewRegistry()
	opts := withMemo(Options{CCMBytes: 512, Obs: reg}, memo, pre, post)
	if res := mustCheck(t, pre, post, opts); !res.Equivalent() {
		t.Fatalf("512 B: %v", res.Divergence)
	}
	if hits := reg.Counter("oracle.memo_hits").Value(); hits != 2 {
		t.Errorf("512 B check: %d memo hits, want 2 (both sides)", hits)
	}
}

// TestMemoSkipsCancelledRuns: a check whose context is cancelled stores
// nothing, so a later check cannot be served a cut-short run.
func TestMemoSkipsCancelledRuns(t *testing.T) {
	p := mustParse(t, `func main() {
loop:
	jmp loop
}
`)
	memo := NewMemo()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Check(ctx, p, p.Clone(), withMemo(Options{}, memo, p, p)); err == nil {
		t.Fatal("cancelled check returned a verdict")
	}
	if n := len(memo.entries); n != 0 {
		t.Errorf("cancelled check stored %d observations", n)
	}
}

// TestMemoBounds: inserts past either budget evict the oldest entries
// until both hold, and a run holding more values than the value budget
// is not kept.
func TestMemoBounds(t *testing.T) {
	const maxEntries, maxValues = 4, 10
	m := newMemo(maxEntries, maxValues)
	for i := 0; i < 40; i++ {
		r := &run{st: &sim.Stats{Output: make([]sim.Value, i%7)}}
		m.put(memoKey{entry: "f", args: argKey([]sim.Value{sim.IntValue(int64(i))})}, r)
		values := 0
		for _, e := range m.entries {
			values += e.size()
		}
		if len(m.entries) > maxEntries || values > maxValues || values != m.values || len(m.order) != len(m.entries) {
			t.Fatalf("insert %d: %d entries, %d values (counted %d), %d in order; budgets %d and %d",
				i, len(m.entries), values, m.values, len(m.order), maxEntries, maxValues)
		}
	}
	big := memoKey{entry: "big"}
	m.put(big, &run{st: &sim.Stats{Output: make([]sim.Value, maxValues+1)}})
	if _, ok := m.get(big, 0, 0); ok {
		t.Error("a run over the value budget was kept")
	}
}

// loopProgram runs 50 iterations of a spilling loop: a few hundred steps,
// at most one call deep, and a cycle count that depends on MemCost.
const loopProgram = `func main() {
entry:
	r0 = loadi 0
	r1 = loadi 50
	r2 = loadi 1
	jmp head
head:
	r3 = cmplt r0, r1
	cbr r3, body, exit
body:
	r0 = add r0, r2
	spill r0, 0
	r0 = restore 0
	jmp head
exit:
	emit r0
	ret
}
`

// memoRun runs main of p through m under cfg and checks the Stats
// against a fresh sim.Run.
func memoRun(t *testing.T, m *Memo, p *ir.Program, cfg sim.Config) (st *sim.Stats, hit bool) {
	t.Helper()
	st, hit, err := m.Run(context.Background(), p, digestOf(p), cfg, "main")
	want, werr := sim.Run(p, "main", cfg)
	if !reflect.DeepEqual(st, want) || !reflect.DeepEqual(err, werr) {
		t.Fatalf("memo run (hit %v) under %+v: got %+v, %v; sim.Run: %+v, %v", hit, cfg, st, err, want, werr)
	}
	return st, hit
}

// TestMemoLimits: a run that completed under the oracle's 2M steps and
// depth 256 serves a request under the simulator's defaults (500M and
// 4096); a run that completed under the defaults does not serve the
// oracle's smaller limits; a run a limit cut short serves only its own
// limits.
func TestMemoLimits(t *testing.T) {
	p := mustParse(t, loopProgram)
	memo := NewMemo()
	reg := obs.NewRegistry()
	mustCheck(t, p, p, withMemo(Options{Obs: reg}, memo, p, p))
	if _, hit := memoRun(t, memo, p, sim.Config{}); !hit {
		t.Error("a run completed at 2M/256 did not serve a 500M/4096 request")
	}

	memo = NewMemo()
	if _, hit := memoRun(t, memo, p, sim.Config{}); hit {
		t.Fatal("an empty memo served a run")
	}
	reg = obs.NewRegistry()
	mustCheck(t, p, p, withMemo(Options{Obs: reg}, memo, p, p))
	// The pre side misses; the post side is the same program and hits.
	if misses := reg.Counter("oracle.memo_misses").Value(); misses != 1 {
		t.Errorf("after a 500M run, a 2M check made %d memo misses, want 1", misses)
	}
	if _, hit := memoRun(t, memo, p, sim.Config{}); !hit {
		t.Error("the 2M run the check stored does not serve a 500M request")
	}

	memo = NewMemo()
	short := sim.Config{MaxSteps: 100}
	if st, _ := memoRun(t, memo, p, short); st == nil {
		t.Fatal("no Stats from a limited run")
	}
	if _, hit := memoRun(t, memo, p, short); !hit {
		t.Error("a limited run does not serve its own limits")
	}
	for _, cfg := range []sim.Config{{MaxSteps: 101}, {MaxSteps: 100, MaxDepth: 8}, {}} {
		if _, hit := memoRun(t, memo, p, cfg); hit {
			t.Errorf("a run limited at 100 steps served %+v", cfg)
		}
	}
	// The completed run replaced the limited one.
	if _, hit := memoRun(t, memo, p, sim.Config{}); !hit {
		t.Error("a completed run was not kept over a limited one")
	}
}

// TestMemoKeyAndSkips: MemCost and CCMCost are part of the key; a memory
// model, a non-zero CCM base and a trace skip the memo.
func TestMemoKeyAndSkips(t *testing.T) {
	p := mustParse(t, loopProgram)
	memo := NewMemo()
	two, _ := memoRun(t, memo, p, sim.Config{MemCost: 2})
	if _, hit := memoRun(t, memo, p, sim.Config{}); !hit {
		t.Error("MemCost 0 (the default, 2) missed a MemCost 2 run")
	}
	three, hit := memoRun(t, memo, p, sim.Config{MemCost: 3})
	if hit || three.Cycles == two.Cycles {
		t.Errorf("MemCost 3: hit %v, %d cycles against %d at MemCost 2", hit, three.Cycles, two.Cycles)
	}
	if _, hit := memoRun(t, memo, p, sim.Config{CCMCost: 5}); hit {
		t.Error("a different CCMCost hit")
	}
	n := len(memo.entries)
	cache, err := memsys.NewCache(memsys.CacheConfig{LineBytes: 32, Sets: 4, Ways: 1, HitCost: 1, MissCost: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []sim.Config{
		{Memory: cache},
		{CCMBytes: 64, CCMBase: 8},
		{Trace: io.Discard},
	} {
		for i := 0; i < 2; i++ {
			if _, hit := memoRun(t, memo, p, cfg); hit {
				t.Errorf("%+v hit the memo", cfg)
			}
		}
	}
	if len(memo.entries) != n {
		t.Errorf("runs that skip the memo stored %d entries", len(memo.entries)-n)
	}
}

// unresolvable returns a copy of p that sim.New rejects but whose entries
// and signatures match p: every jmp targets a missing label.
func unresolvable(p *ir.Program) *ir.Program {
	q := p.Clone()
	for _, f := range q.Funcs {
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpJmp {
				in.Then = "nowhere"
			}
		})
	}
	return q
}

// TestMemoizedCheckResolvesNothing: a check whose every run hits the memo
// resolves neither program. The programs handed to the warm check cannot
// be resolved at all, so any resolution would fail it; under the same
// digests it must return the cold check's Result. Without the memo, or
// under a key the memo lacks, the same programs fail.
func TestMemoizedCheckResolvesNothing(t *testing.T) {
	pre := workload.RandomProgram(3)
	post := pre.Clone()
	for _, f := range post.Funcs {
		if _, err := regalloc.Allocate(f, regalloc.Options{IntRegs: 6, FloatRegs: 6}); err != nil {
			t.Fatal(err)
		}
	}
	memo := NewMemo()
	opts := withMemo(Options{Seed: 7}, memo, pre, post)
	want := mustCheck(t, pre, post, opts)
	badPre, badPost := unresolvable(pre), unresolvable(post)
	got, err := Check(context.Background(), badPre, badPost, opts)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("warm check of unresolvable programs: %+v, %v; want %+v", got, err, want)
	}
	if _, err := Check(context.Background(), badPre, badPost, Options{Seed: 7}); err == nil {
		t.Error("without a memo, the unresolvable programs passed")
	}
	opts.Seed = 8 // new vectors: runs the memo has not seen
	if _, err := Check(context.Background(), badPre, badPost, opts); err == nil {
		t.Error("a check the memo cannot serve passed without resolving")
	}
}

// TestMemoRejectsBadConfigWhenWarm: a CCM above sim.MaxCCMBytes shares
// its key with any CCM covering the footprint, so the memo holds every
// run of the check; the configuration must still fail it.
func TestMemoRejectsBadConfigWhenWarm(t *testing.T) {
	p := mustParse(t, loopProgram)
	memo := NewMemo()
	mustCheck(t, p, p, withMemo(Options{CCMBytes: 64}, memo, p, p))
	_, err := Check(context.Background(), p, p, withMemo(Options{CCMBytes: sim.MaxCCMBytes + 8}, memo, p, p))
	if !errors.Is(err, sim.ErrAddressSpace) {
		t.Errorf("check at %d B through a warm memo: %v, want the address-space error", int64(sim.MaxCCMBytes+8), err)
	}
	if _, _, err := memo.Run(context.Background(), p, digestOf(p), sim.Config{CCMBytes: sim.MaxCCMBytes + 8}, "main"); !errors.Is(err, sim.ErrAddressSpace) {
		t.Errorf("run at %d B through a warm memo: %v, want the address-space error", int64(sim.MaxCCMBytes+8), err)
	}
}
