package oracle

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ccmem/internal/ir"
)

// chainProgram is main and f(r0) as chains of n blocks each, so resolving
// it allocates in proportion to n.
func chainProgram(t *testing.T, n int) *ir.Program {
	var b strings.Builder
	for _, head := range []string{"func main() {", "func f(r0) int {"} {
		b.WriteString(head + "\nentry:\n\tr1 = loadi 1\n\tjmp b0\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "b%d:\n\tr1 = add r1, r1\n\tjmp b%d\n", i, i+1)
		}
		if strings.HasPrefix(head, "func main") {
			fmt.Fprintf(&b, "b%d:\n\temit r1\n\tret\n}\n", n)
		} else {
			fmt.Fprintf(&b, "b%d:\n\tr2 = add r1, r0\n\tret r2\n}\n", n)
		}
	}
	return mustParse(t, b.String())
}

// TestAllocGuardMemoizedCheck: a check whose every run the memo holds
// does no resolution work, so it allocates the same count and bytes for
// programs of 8 blocks per function as for programs of 4,096. Resolving
// both sides eagerly allocated code, block tables and label maps in
// proportion to the programs: 172 more allocations and 5 MB more per
// check at 4,096 blocks. The slack of one allocation and 64 bytes per
// check absorbs allocations the runtime makes during the measurement.
func TestAllocGuardMemoizedCheck(t *testing.T) {
	type cost struct{ allocs, bytes int64 }
	measure := func(n int) cost {
		p := chainProgram(t, n)
		memo := NewMemo()
		opts := withMemo(Options{Seed: 1}, memo, p, p)
		mustCheck(t, p, p, opts) // fills the memo
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Check(context.Background(), p, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		return cost{res.AllocsPerOp(), res.AllocedBytesPerOp()}
	}
	small, large := measure(8), measure(4096)
	t.Logf("memoized check: %+v at 8 blocks per function, %+v at 4,096", small, large)
	if large.allocs > small.allocs+1 || large.bytes > small.bytes+64 {
		t.Errorf("a memoized check allocates %+v at 4,096 blocks per function against %+v at 8: it does work in proportion to the programs", large, small)
	}
}
