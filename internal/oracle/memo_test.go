package oracle

import (
	"context"
	"crypto/sha256"
	"reflect"
	"testing"

	"ccmem/internal/core"
	"ccmem/internal/ir"
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
// until both hold, and an observation larger than the value budget is
// not kept.
func TestMemoBounds(t *testing.T) {
	const maxEntries, maxValues = 4, 10
	m := newMemo(maxEntries, maxValues)
	for i := 0; i < 40; i++ {
		o := &observation{out: make([]sim.Value, i%7)}
		m.put(memoKey{entry: "f", args: argKey([]sim.Value{sim.IntValue(int64(i))})}, o)
		values := 0
		for _, e := range m.entries {
			values += len(e.out)
		}
		if len(m.entries) > maxEntries || values > maxValues || values != m.values || len(m.order) != len(m.entries) {
			t.Fatalf("insert %d: %d entries, %d values (counted %d), %d in order; budgets %d and %d",
				i, len(m.entries), values, m.values, len(m.order), maxEntries, maxValues)
		}
	}
	big := memoKey{entry: "big"}
	m.put(big, &observation{out: make([]sim.Value, maxValues+1)})
	if _, ok := m.get(big); ok {
		t.Error("an observation over the value budget was kept")
	}
}
