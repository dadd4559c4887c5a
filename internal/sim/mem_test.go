package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"ccmem/internal/ir"
)

// allocProgram is a small workload with globals, a call, spills and a
// loop: every memory path a run takes, at a size where the per-run
// allocation is bookkeeping rather than simulated memory.
const allocProgram = `
global G 4 = i 1 2 3 4
func main() int {
entry:
	r0 = loadi 4
	r1 = call sum(r0)
	ret r1
}
func sum(r0) int {
entry:
	r1 = addr G, 0
	r2 = loadi 0
	r3 = loadi 0
	r4 = loadi 1
	spill r0, 0
	jmp head
head:
	r5 = restore 0
	r6 = cmplt r3, r5
	cbr r6, body, exit
body:
	r7 = loadi 8
	r8 = mul r3, r7
	r9 = add r1, r8
	r10 = load r9
	r2 = add r2, r10
	r3 = add r3, r4
	jmp head
exit:
	ret r2
}
`

// TestAllocGuardSimRun: a run allocates the memory it touches, not the
// whole stack region. Before memory grew on write, every run zeroed the
// globals plus a 64 Ki-word stack (over 512 KiB for an empty main).
func TestAllocGuardSimRun(t *testing.T) {
	m, err := New(mustParse(t, allocProgram), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := m.Run("main")
			if err != nil || st.Ret.Int() != 10 {
				b.Fatalf("run: ret %v, err %v", st.Ret, err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("Machine.Run: %d B/op, %d allocs/op", got, res.AllocsPerOp())
	const ceiling = 4096
	if got > ceiling {
		t.Errorf("Machine.Run allocates %d B/op, want <= %d", got, ceiling)
	}
}

// regHungryProgram recurses through a function that names r65535, so
// each of its frames holds a 65,536-word register table.
const regHungryProgram = `func f() {
entry:
	r65535 = loadi 1
	call f()
	ret
}
func main() {
entry:
	call f()
	ret
}
`

// TestAllocGuardRegisterWords: the register tables of a run's live
// frames are bounded together. One run of regHungryProgram at the
// default depth allocated 4,096 tables of 512 KiB, 2 GiB, before the
// depth limit stopped it; it now stops at maxRegWords with a limit
// fault, as the depth limit does, having allocated the tables under it.
func TestAllocGuardRegisterWords(t *testing.T) {
	p := mustParse(t, regHungryProgram)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(p, "main", Config{})
	runtime.ReadMemStats(&after)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultLimit || !strings.Contains(f.Msg, "register words") {
		t.Fatalf("run: %v, want a limit fault on register words", err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("run: %v after %d bytes", err, got)
	const ceiling = maxRegWords*ir.WordBytes + 8<<20
	if got > ceiling {
		t.Errorf("run allocated %d bytes, want at most %d", got, ceiling)
	}
}

// TestMemoryBoundary pins the edges of the address space: memory grows
// on write without changing what any address reads, what faults, or at
// which call depth the stack overflows.
func TestMemoryBoundary(t *testing.T) {
	// No globals: the stack spans [8, 8+stackWords*8), so the last
	// addressable word sits at stackWords*8.
	last := int64(stackWords) * ir.WordBytes

	t.Run("last word", func(t *testing.T) {
		p := mustParse(t, `func main(r0) {
entry:
	r1 = load r0
	emit r1
	r2 = loadi 42
	store r2, r0
	r3 = load r0
	emit r3
	ret
}
`)
		st, err := Run(p, "main", Config{}, IntValue(last))
		if err != nil {
			t.Fatal(err)
		}
		// Never written, so 0; then the stored value.
		if len(st.Output) != 2 || st.Output[0].Int() != 0 || st.Output[1].Int() != 42 {
			t.Fatalf("output = %v, want [0 42]", st.Output)
		}
	})

	t.Run("one word past", func(t *testing.T) {
		for _, op := range []string{"r1 = load r0", "store r0, r0"} {
			p := mustParse(t, "func main(r0) {\nentry:\n\t"+op+"\n\tret\n}\n")
			_, err := Run(p, "main", Config{}, IntValue(last+ir.WordBytes))
			var f *Fault
			if !errors.As(err, &f) || f.Kind != FaultSemantic {
				t.Fatalf("%s: got %v, want a semantic *Fault", op, err)
			}
			want := "memory access at 524296 outside [8, 524296)"
			if f.Msg != want {
				t.Errorf("%s: Fault.Msg = %q, want %q", op, f.Msg, want)
			}
		}
	})

	t.Run("stack overflow depth", func(t *testing.T) {
		// Every activation of rec spills to both ends of its 8 KiB frame,
		// so each call grows memory; 64 frames fill the 512 KiB stack and
		// the 65th call overflows it.
		p := mustParse(t, `func main() {
entry:
	call rec()
	ret
}
func rec() {
entry:
	r0 = loadi 7
	spill r0, 0
	spill r0, 8184
	call rec()
	ret
}
`)
		st, err := Run(p, "main", Config{})
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultLimit {
			t.Fatalf("got %v, want a FaultLimit *Fault", err)
		}
		if f.Func != "rec" || !strings.Contains(f.Msg, "stack overflow: 8192 bytes needed") {
			t.Errorf("fault = %s in %s, want a stack overflow in rec", f.Msg, f.Func)
		}
		if got := st.PerFunc["rec"].Calls; got != 64 {
			t.Errorf("rec ran %d frames before overflowing, want 64", got)
		}
	})
}

// TestAddressSpaceCap: New refuses a program whose globals and stack do
// not fit the fixed address space, before anything is allocated, and
// never lets a near-MaxInt size overflow the layout.
func TestAddressSpaceCap(t *testing.T) {
	fits := maxMemWords - stackWords - 1
	for _, tc := range []struct {
		name  string
		words []int
		ok    bool
	}{
		{"largest that fits", []int{fits}, true},
		{"one word over", []int{fits + 1}, false},
		{"sum over", []int{fits / 2, fits/2 + 2}, false},
		{"cap itself", []int{maxMemWords}, false},
		{"near MaxInt", []int{1, int(^uint(0) >> 1)}, false},
		{"negative", []int{-1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &ir.Program{}
			for i, w := range tc.words {
				p.Globals = append(p.Globals, &ir.Global{Name: string(rune('A' + i)), Words: w})
			}
			_, err := New(p, Config{})
			if tc.ok && err != nil {
				t.Fatalf("New: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrAddressSpace) {
				t.Fatalf("New: err = %v, want ErrAddressSpace", err)
			}
		})
	}
}

// TestCCMCap: New refuses a CCM larger than the main-memory cap before
// anything is allocated, since a run allocates the whole CCM.
func TestCCMCap(t *testing.T) {
	p := mustParse(t, "func main() {\nentry:\n\tret\n}\n")
	for _, tc := range []struct {
		name  string
		bytes int64
		ok    bool
	}{
		{"cap itself", maxMemWords * ir.WordBytes, true},
		{"one word over", (maxMemWords + 1) * ir.WordBytes, false},
		{"1<<62", 1 << 62, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(p, Config{CCMBytes: tc.bytes})
			if tc.ok && err != nil {
				t.Fatalf("New: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrAddressSpace) {
				t.Fatalf("New: err = %v, want ErrAddressSpace", err)
			}
		})
	}
}

// TestStatsOwnedPerRun: each run returns its own per-function counters,
// so running a Machine again leaves an earlier run's Stats intact.
func TestStatsOwnedPerRun(t *testing.T) {
	m, err := New(mustParse(t, `func main(r0) {
entry:
	call work(r0)
	ret
}
func work(r0) {
entry:
	r1 = loadi 1
	jmp head
head:
	cbr r0, body, exit
body:
	r0 = sub r0, r1
	jmp head
exit:
	ret
}
`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Run("main", IntValue(2))
	if err != nil {
		t.Fatal(err)
	}
	before := *first.PerFunc["work"]
	second, err := m.Run("main", IntValue(200))
	if err != nil {
		t.Fatal(err)
	}
	if after := *first.PerFunc["work"]; after != before {
		t.Errorf("first run's work stats changed from %+v to %+v after a second run", before, after)
	}
	if second.PerFunc["work"].Instrs <= before.Instrs {
		t.Errorf("second run's work instrs = %d, want more than the first run's %d",
			second.PerFunc["work"].Instrs, before.Instrs)
	}
}
