package ir

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// repeated writes unit(0), unit(1), ... to b until b holds n bytes, and
// returns how many units it wrote.
func repeated(b *strings.Builder, n int, unit func(i int) string) int {
	i := 0
	for ; b.Len() < n; i++ {
		b.WriteString(unit(i))
	}
	return i
}

// nameHeavyBodies returns ILOC programs of about size bytes, each dense
// in one kind of name that a parse or verify resolves: globals, one-block
// functions, blocks, call sites of the last of many functions, and addr
// instructions of the last of many globals. Each parses and verifies.
func nameHeavyBodies(size int) map[string]string {
	const main = "func main() {\nentry:\n\tret\n}\n"
	fn := func(i int) string { return fmt.Sprintf("func f%d() {\nentry:\n\tret\n}\n", i) }
	global := func(i int) string { return fmt.Sprintf("global g%d 1\n", i) }
	bodies := map[string]string{}
	var b strings.Builder

	repeated(&b, size, global)
	bodies["globals"] = b.String() + main
	b.Reset()
	repeated(&b, size, fn)
	bodies["functions"] = b.String() + main
	b.Reset()
	b.WriteString("func main() {\n")
	n := repeated(&b, size, func(i int) string { return fmt.Sprintf("b%d:\n\tjmp b%d\n", i, i+1) })
	bodies["blocks"] = b.String() + fmt.Sprintf("b%d:\n\tret\n}\n", n)
	b.Reset()
	repeated(&b, size/2, fn)
	b.WriteString("func last() {\nentry:\n\tret\n}\nfunc main() {\nentry:\n")
	repeated(&b, size, func(int) string { return "\tcall last()\n" })
	bodies["calls"] = b.String() + "\tret\n}\n"
	b.Reset()
	repeated(&b, size/2, global)
	b.WriteString("global last 1\nfunc main() {\nentry:\n")
	repeated(&b, size, func(int) string { return "\tr0 = addr last, 0\n" })
	bodies["addrs"] = b.String() + "\tret\n}\n"
	return bodies
}

// TestParseAndVerifyLinearInNames: parsing and verifying a program is
// linear in the names it declares and resolves. Each name-heavy body
// must parse and verify within a small multiple of the time a body of
// the same size made of straight-line instructions takes; a duplicate or
// cross-reference check that scans every earlier name makes the heavy
// bodies quadratic, and at this size tens of times slower.
func TestParseAndVerifyLinearInNames(t *testing.T) {
	if testing.Short() {
		t.Skip("parses several 1 MiB programs")
	}
	const size = 1 << 20
	// cost returns the best of three parse and verify times of src.
	cost := func(name, src string) time.Duration {
		best := time.Duration(1<<63 - 1)
		for range 3 {
			start := time.Now()
			p, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := VerifyProgram(p, VerifyOptions{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	var b strings.Builder
	b.WriteString("func main() {\nentry:\n")
	repeated(&b, size, func(int) string { return "\tr0 = loadi 1\n" })
	base := cost("straight-line", b.String()+"\tret\n}\n")
	const ceiling = 10
	for name, src := range nameHeavyBodies(size) {
		got := cost(name, src)
		t.Logf("%s: %v, %.1fx the straight-line body's %v", name, got, float64(got)/float64(base), base)
		if got > ceiling*base {
			t.Errorf("%s: parse and verify took %v, over %dx the straight-line body's %v", name, got, ceiling, base)
		}
	}
}
