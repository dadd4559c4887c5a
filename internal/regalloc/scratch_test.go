package regalloc

import "testing"

// TestAllocGuardAllocate: a warm Allocate carves the interference rows,
// the liveness sets and the side arrays of every round from its pooled
// scratch instead of making them anew. The function spills over three
// rounds in integrated mode, so every build resets both bit matrices. The
// ceiling sits about a fifth above the measured 1.18 MB/op (go1.24,
// linux/amd64); remaking the matrices on each build measured 2.03 MB/op.
func TestAllocGuardAllocate(t *testing.T) {
	f := buildPressure(120).Func("main")
	opts := Options{IntRegs: 8, FloatRegs: 8, CCMBytes: 512}
	warm, err := Allocate(f.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rounds < 3 {
		t.Fatalf("guard function allocated in %d rounds, want a multi-round spill", warm.Rounds)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := f.Clone()
			b.StartTimer()
			if _, err := Allocate(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("warm Allocate (%d rounds): %d B/op, %d allocs/op", warm.Rounds, got, res.AllocsPerOp())
	const ceiling = 1_450_000
	if got > ceiling {
		t.Errorf("warm Allocate allocates %d B/op, want <= %d: is scratch still reused across rounds?", got, ceiling)
	}
}
