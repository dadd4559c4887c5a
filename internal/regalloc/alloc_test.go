package regalloc

import (
	"strings"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

func parseAlloc(t *testing.T, src string, opts Options) (*ir.Program, *Result) {
	t.Helper()
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	var res *Result
	for _, f := range p.Funcs {
		r, err := Allocate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name == "main" {
			res = r
		}
	}
	if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
		t.Fatalf("post-alloc verify: %v", err)
	}
	return p, res
}

func TestNoSpillWhenRegistersSuffice(t *testing.T) {
	src := `func main() {
entry:
	r0 = loadi 1
	r1 = loadi 2
	r2 = add r0, r1
	emit r2
	ret
}
`
	p, res := parseAlloc(t, src, Options{IntRegs: 3, FloatRegs: 1})
	if res.SpilledRanges != 0 || res.Rounds != 1 {
		t.Fatalf("unexpected spills: %+v", res)
	}
	st, err := sim.Run(p, "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0].Int() != 3 {
		t.Fatal("wrong result")
	}
}

func TestCoalescingRemovesCopies(t *testing.T) {
	src := `func main() {
entry:
	r0 = loadi 7
	r1 = copy r0
	r2 = copy r1
	r3 = copy r2
	emit r3
	ret
}
`
	p, res := parseAlloc(t, src, Options{IntRegs: 8, FloatRegs: 1})
	if strings.Contains(p.Funcs[0].String(), "copy") {
		t.Fatalf("copies survived:\n%s", p.Funcs[0])
	}
	_ = res
}

func TestPhysicalRegisterBudgetRespected(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		p := workload.RandomProgram(seed)
		for _, f := range p.Funcs {
			if _, err := Allocate(f, Options{IntRegs: 5, FloatRegs: 3}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					check := func(r ir.Reg) {
						if r == ir.NoReg {
							return
						}
						if f.RegClass(r) == ir.ClassInt && int(r) >= 5 {
							t.Fatalf("int register %d out of budget", r)
						}
						if f.RegClass(r) == ir.ClassFloat && (int(r) < 5 || int(r) >= 8) {
							t.Fatalf("float register %d out of layout", r)
						}
					}
					check(in.Dst)
					for _, a := range in.Args {
						check(a)
					}
				}
			}
		}
	}
}

func TestAllocatedTwiceFails(t *testing.T) {
	src := "func main() {\nentry:\n\tret\n}"
	p, _ := ir.Parse(src)
	if _, err := Allocate(p.Funcs[0], Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(p.Funcs[0], Options{}); err == nil {
		t.Fatal("double allocation accepted")
	}
}

func TestTooFewRegistersFailsCleanly(t *testing.T) {
	// A single instruction needing 3 distinct live values cannot be
	// allocated with 1 register; the allocator must error, not loop.
	src := `func main() {
entry:
	r0 = loadi 1
	r1 = loadi 2
	r2 = add r0, r1
	r3 = add r2, r0
	emit r3
	ret
}
`
	p, _ := ir.Parse(src)
	_, err := Allocate(p.Funcs[0], Options{IntRegs: 1, FloatRegs: 1, MaxRounds: 8})
	if err == nil {
		t.Fatal("impossible allocation succeeded")
	}
}

func TestParamsSurviveAllocation(t *testing.T) {
	src := `
func main() {
entry:
	r0 = loadi 30
	f1 = loadf 0.5
	r2 = call mix(r0, f1, r0)
	emit r2
	ret
}
func mix(r0, f1, r2) int {
entry:
	r3 = add r0, r2
	r4 = f2i f1
	r5 = add r3, r4
	ret r5
}
`
	p, _ := parseAlloc(t, src, Options{IntRegs: 4, FloatRegs: 2})
	st, err := sim.Run(p, "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0].Int() != 60 {
		t.Fatalf("got %v, want 60", st.Output[0])
	}
	// Params must be distinct physical registers.
	mix := p.Func("mix")
	seen := map[ir.Reg]bool{}
	for _, pr := range mix.Params {
		if seen[pr] {
			t.Fatalf("parameters share register %d", pr)
		}
		seen[pr] = true
	}
}

func TestSpilledParameter(t *testing.T) {
	// With 2 int registers, three int params force a parameter spill; the
	// entry block must store the incoming value before it is clobbered.
	src := `
func main() {
entry:
	r0 = loadi 1
	r1 = loadi 2
	r2 = loadi 3
	r3 = call f(r0, r1, r2)
	emit r3
	ret
}
func f(r0, r1, r2) int {
entry:
	r3 = mul r0, r1
	r4 = mul r3, r2
	r5 = add r4, r0
	r6 = add r5, r1
	r7 = add r6, r2
	ret r7
}
`
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Funcs {
		if _, err := Allocate(f, Options{IntRegs: 3, FloatRegs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(p, "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// f(1,2,3) = 1*2*3 + 1 + 2 + 3 = 12.
	if st.Output[0].Int() != 12 {
		t.Fatalf("got %v, want 12", st.Output[0])
	}
}

func TestUnusedParameterHarmless(t *testing.T) {
	src := `
func main() {
entry:
	r0 = loadi 5
	r1 = loadi 9
	r2 = call f(r0, r1)
	emit r2
	ret
}
func f(r0, r1) int {
entry:
	ret r1
}
`
	p, _ := parseAlloc(t, src, Options{IntRegs: 3, FloatRegs: 1})
	st, err := sim.Run(p, "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0].Int() != 9 {
		t.Fatalf("got %v, want 9 (unused param clobbered the used one?)", st.Output[0])
	}
}

func TestIntegratedCCMOffsetsWithinCapacity(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		p := workload.RandomProgram(seed)
		const capBytes = 128
		for _, f := range p.Funcs {
			if _, err := Allocate(f, Options{IntRegs: 4, FloatRegs: 4, CCMBytes: capBytes}); err != nil {
				t.Fatal(err)
			}
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op.IsCCMOp() && in.Imm+ir.WordBytes > capBytes {
						t.Fatalf("seed %d: CCM offset %d beyond capacity", seed, in.Imm)
					}
				}
			}
			if f.CCMBytes > capBytes {
				t.Fatalf("recorded CCM usage %d beyond capacity", f.CCMBytes)
			}
		}
	}
}

func TestIntegratedAvoidsLiveAcrossCall(t *testing.T) {
	// Values live across a call must never be CCM-spilled by the
	// integrated allocator (its conservative interprocedural rule).
	src := `
func main() {
entry:
	r0 = loadi 1
	r1 = loadi 2
	r2 = loadi 3
	r3 = loadi 4
	r4 = loadi 5
	call g()
	r5 = add r0, r1
	r6 = add r5, r2
	r7 = add r6, r3
	r8 = add r7, r4
	emit r8
	ret
}
func g() {
entry:
	ret
}
`
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Funcs {
		if _, err := Allocate(f, Options{IntRegs: 3, FloatRegs: 1, CCMBytes: 512}); err != nil {
			t.Fatal(err)
		}
	}
	main := p.Func("main")
	// All five values are live across the call; any spills before the call
	// must be heavyweight.
	text := main.String()
	callPos := strings.Index(text, "call g")
	if ccmPos := strings.Index(text, "ccmspill"); ccmPos != -1 && ccmPos < callPos {
		t.Fatalf("CCM spill before call (live across):\n%s", text)
	}
	st, err := sim.Run(p, "main", sim.Config{CCMBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0].Int() != 15 {
		t.Fatalf("got %v", st.Output[0])
	}
}

func TestFrameBytesMatchSpillOffsets(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		p := workload.RandomProgram(seed)
		for _, f := range p.Funcs {
			if _, err := Allocate(f, Options{IntRegs: 4, FloatRegs: 4}); err != nil {
				t.Fatal(err)
			}
			maxEnd := int64(0)
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op.IsSpill() || in.Op.IsRestore() {
						if in.Imm+ir.WordBytes > maxEnd {
							maxEnd = in.Imm + ir.WordBytes
						}
					}
				}
			}
			if maxEnd > f.FrameBytes {
				t.Fatalf("seed %d: %s: spill at %d beyond frame %d", seed, f.Name, maxEnd, f.FrameBytes)
			}
		}
	}
}

func TestFloatAndIntSpillIndependently(t *testing.T) {
	// Heavy float pressure with light int pressure must not spill ints.
	b := ir.NewBuilder("main", ir.ClassNone)
	b.Label("entry")
	vals := make([]ir.Reg, 10)
	for i := range vals {
		vals[i] = b.ConstF(float64(i) + 0.5)
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.FAdd(acc, v)
	}
	prod := vals[0]
	for _, v := range vals[1:] {
		prod = b.FMul(prod, v)
	}
	b.Emit(b.FAdd(acc, prod))
	b.Ret()
	p := &ir.Program{}
	if err := p.AddFunc(b.MustFinish()); err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(p.Clone(), "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Allocate(p.Funcs[0], Options{IntRegs: 4, FloatRegs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledRanges == 0 {
		t.Fatal("no float spills under pressure")
	}
	text := p.Funcs[0].String()
	if strings.Contains(text, "\tspill r") || strings.Contains(text, "= restore") {
		t.Fatalf("integer spills under float-only pressure:\n%s", text)
	}
	got, err := sim.Run(p, "main", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.TracesEqual(got.Output, want.Output) {
		t.Fatal("trace changed")
	}
}

// TestHugeCCMAllocatesLikeARoomyOne: in integrated mode the graph carries
// only the CCM slots a round can reach, so the largest CCM the simulator
// allows allocates exactly as a CCM with room to spare does, instead of
// sizing the interference matrix by the CCM.
func TestHugeCCMAllocatesLikeARoomyOne(t *testing.T) {
	ccmRanges := 0
	for seed := int64(1); seed <= 10; seed++ {
		for _, f := range workload.RandomProgram(seed).Funcs {
			roomy, huge := f.Clone(), f.Clone()
			want, err := Allocate(roomy, Options{IntRegs: 4, FloatRegs: 4, CCMBytes: 1 << 16})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
			got, err := Allocate(huge, Options{IntRegs: 4, FloatRegs: 4, CCMBytes: sim.MaxCCMBytes})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
			if *got != *want || huge.String() != roomy.String() {
				t.Fatalf("seed %d %s: a %d-byte CCM allocates differently from a 64 KiB one (%+v vs %+v)",
					seed, f.Name, int64(sim.MaxCCMBytes), *got, *want)
			}
			ccmRanges += got.CCMRanges
		}
	}
	if ccmRanges == 0 {
		t.Fatal("no range went to the CCM; the comparison exercised nothing")
	}
}
