package ccmd

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// serveZipfConfigs are the seven request configurations of perfbench's
// serve-zipf mix: the baseline, then each CCM strategy at 512 and 1024
// bytes.
var serveZipfConfigs = []RequestConfig{
	{Strategy: "none"},
	{Strategy: "postpass", CCMBytes: 512},
	{Strategy: "postpass", CCMBytes: 1024},
	{Strategy: "postpass-ipa", CCMBytes: 512},
	{Strategy: "postpass-ipa", CCMBytes: 1024},
	{Strategy: "integrated", CCMBytes: 512},
	{Strategy: "integrated", CCMBytes: 1024},
}

// routineText is the printed ILOC of a suite routine.
func routineText(t *testing.T, name string) string {
	t.Helper()
	r, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("no workload routine %q", name)
	}
	p, err := r.Build()
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return p.String()
}

// memoCounts reads the parse memo's counters from svc's registry.
func memoCounts(svc *Service) (hits, misses, evictions int64) {
	c := svc.Metrics().Counters
	return c["ccmd.parse_memo.hits"], c["ccmd.parse_memo.misses"], c["ccmd.parse_memo.evictions"]
}

func mustCompileText(t *testing.T, svc *Service, text string, cfg RequestConfig) string {
	t.Helper()
	resp, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text, Config: cfg})
	if apiErr != nil {
		t.Fatalf("%s/%d: %v", cfg.Strategy, cfg.CCMBytes, apiErr)
	}
	return resp.Output
}

// TestParseMemoRepeatRequests: under each of serve-zipf's configs, a
// repeat request of a text, which the parse memo serves, returns the
// bytes the first request did and a fresh service does. Each text is
// parsed once however many configs compile it.
func TestParseMemoRepeatRequests(t *testing.T) {
	texts := []string{routineText(t, "fpppp"), testProgram(t, 3)}
	svc := newTestService(t, nil)
	for _, text := range texts {
		for _, cfg := range serveZipfConfigs {
			first := mustCompileText(t, svc, text, cfg)
			repeat := mustCompileText(t, svc, text, cfg)
			fresh := mustCompileText(t, newTestService(t, nil), text, cfg)
			if repeat != first || fresh != first {
				t.Errorf("%s/%d: the repeat request (same %v) or a fresh service (same %v) printed other bytes than the first",
					cfg.Strategy, cfg.CCMBytes, repeat == first, fresh == first)
			}
		}
	}
	hits, misses, _ := memoCounts(svc)
	if want := int64(len(texts)); misses != want || hits != 2*int64(len(serveZipfConfigs))*want-want {
		t.Errorf("parse memo: %d hits and %d misses, want %d and %d",
			hits, misses, 2*int64(len(serveZipfConfigs))*want-want, want)
	}
}

// TestParseMemoOneParse: N identical requests, compiles and runs alike,
// parse their text once.
func TestParseMemoOneParse(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 4)
	const n = 6
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			mustCompileText(t, svc, text, RequestConfig{Strategy: "postpass", CCMBytes: 512})
		} else if _, apiErr := svc.Run(context.Background(), &RunRequest{Program: text}); apiErr != nil {
			t.Fatalf("Run: %v", apiErr)
		}
	}
	if hits, misses, _ := memoCounts(svc); misses != 1 || hits != n-1 {
		t.Errorf("%d identical requests: %d parse memo misses and %d hits, want 1 and %d", n, misses, hits, n-1)
	}
}

// TestParseMemoRefusesBadProgramsAlike: a program that fails to parse or
// to verify is refused with the same error every time and never enters
// the memo, so each request parses it again.
func TestParseMemoRefusesBadProgramsAlike(t *testing.T) {
	svc := newTestService(t, nil)
	bad := []string{
		"not iloc at all",
		"func main() {\nentry:\n\tcall nope()\n\tret\n}\n",
		"func main() {\nentry:\n\tr0 = loadi 1\n\tret r0\n}\n",
	}
	for _, text := range bad {
		var errs [2]*APIError
		for i := range errs {
			_, errs[i] = svc.Compile(context.Background(), &CompileRequest{Program: text})
			if errs[i] == nil || errs[i].Code != CodeBadProgram {
				t.Fatalf("%q: request %d got %v, want a %s error", text, i, errs[i], CodeBadProgram)
			}
		}
		if *errs[0] != *errs[1] {
			t.Errorf("%q: refused as %v, then as %v", text, errs[0], errs[1])
		}
		if _, apiErr := svc.Run(context.Background(), &RunRequest{Program: text}); apiErr == nil || *apiErr != *errs[0] {
			t.Errorf("%q: /run refused it as %v, /compile as %v", text, apiErr, errs[0])
		}
	}
	if hits, misses, _ := memoCounts(svc); hits != 0 || misses != 3*int64(len(bad)) {
		t.Errorf("bad programs: %d parse memo hits and %d misses, want 0 and %d", hits, misses, 3*len(bad))
	}
	if n := len(svc.memo.entries); n != 0 {
		t.Errorf("the parse memo holds %d bad programs", n)
	}
}

// TestParseMemoEvictsLRU: once the entries held pass the memo's byte
// bound, the least recently used text goes first, and an entry whose
// charge exceeds the bound is never kept.
func TestParseMemoEvictsLRU(t *testing.T) {
	svc := newTestService(t, nil)
	a, b, c := testProgram(t, 5), testProgram(t, 6), testProgram(t, 7)
	charge := func(text string) int64 { return int64(len(text)) + footprint(mustParse(t, text)) }
	ca, cb, cc := charge(a), charge(b), charge(c)
	svc.memo.maxBytes = max(ca+cb, ca+cc, cb+cc)
	run := func(text string) {
		t.Helper()
		if _, apiErr := svc.Run(context.Background(), &RunRequest{Program: text}); apiErr != nil {
			t.Fatalf("Run: %v", apiErr)
		}
	}
	for _, text := range []string{a, b, a, c} { // a is used after b, so c evicts b
		run(text)
	}
	if hits, misses, evictions := memoCounts(svc); hits != 1 || misses != 3 || evictions != 1 {
		t.Fatalf("a, b, a, c: %d hits, %d misses, %d evictions, want 1, 3, 1", hits, misses, evictions)
	}
	run(a) // kept
	run(c) // kept
	run(b) // evicted, so parsed again; it evicts a, the least recent
	if hits, misses, evictions := memoCounts(svc); hits != 3 || misses != 4 || evictions != 2 {
		t.Errorf("then a, c, b: %d hits, %d misses, %d evictions, want 3, 4, 2", hits, misses, evictions)
	}
	if held := svc.memo.bytes; held != cb+cc || len(svc.memo.entries) != 2 {
		t.Errorf("the memo holds %d entries charged %d bytes, want b and c (%d bytes)", len(svc.memo.entries), held, cb+cc)
	}

	svc.memo.maxBytes = ca - 1
	run(a)
	run(a)
	if _, misses, _ := memoCounts(svc); misses != 6 {
		t.Errorf("an entry over the bound was kept: %d misses, want 6", misses)
	}
}

// TestParseMemoChargesParsedSize: the memo charges an entry for its
// parsed program, not only its text. A function's register table is as
// long as the highest register it names, so a 45-byte text naming r65535
// parses to a 65,536-entry table; the memo's default bound keeps only as
// many of those as the tables fit in, evicting the rest.
func TestParseMemoChargesParsedSize(t *testing.T) {
	svc := newTestService(t, nil)
	table := int64(ir.MaxRegs) * int64(unsafe.Sizeof(ir.RegInfo{}))
	const n = 40
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("func f%d() {\nentry:\n\tr%d = loadi 1\n\tret\n}\n", i, ir.MaxRegs-1)
		if _, apiErr := svc.parseProgram(text); apiErr != nil {
			t.Fatalf("%q: %v", text, apiErr)
		}
	}
	held := int64(len(svc.memo.entries))
	if max := svc.memo.maxBytes / table; held > max || svc.memo.bytes > svc.memo.maxBytes {
		t.Errorf("the memo holds %d entries charged %d bytes; its %d-byte bound fits at most %d tables of %d bytes",
			held, svc.memo.bytes, svc.memo.maxBytes, max, table)
	}
	if _, misses, evictions := memoCounts(svc); misses != n || evictions != n-held {
		t.Errorf("%d texts: %d misses and %d evictions, want %d and %d", n, misses, evictions, n, n-held)
	}
}

// TestParseMemoConcurrentCompileAndRun: concurrent compiles under every
// serve-zipf config and runs of one text share its memoized program;
// each compile prints what a solo compile does and each run measures
// what a direct simulation does. verify.sh runs it under the race
// detector ten times.
func TestParseMemoConcurrentCompileAndRun(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxInflight = 4; c.MaxQueue = 64 })
	text := routineText(t, "fir")
	want := make([]string, len(serveZipfConfigs))
	for i, cfg := range serveZipfConfigs {
		pcfg, apiErr := svc.pipelineConfig(&CompileRequest{Config: cfg})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		want[i] = soloCompile(t, text, pcfg)
	}
	st, err := sim.Run(mustParse(t, text), "main", sim.Config{CCMBytes: 512})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(serveZipfConfigs))
	for i, cfg := range serveZipfConfigs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text, Config: cfg})
			switch {
			case apiErr != nil:
				errs <- apiErr
			case resp.Output != want[i]:
				errs <- fmt.Errorf("%s/%d: output differs from a solo compile", cfg.Strategy, cfg.CCMBytes)
			}
		}()
		go func() {
			defer wg.Done()
			resp, apiErr := svc.Run(context.Background(), &RunRequest{Program: text, CCMBytes: 512})
			switch {
			case apiErr != nil:
				errs <- apiErr
			case resp.Cycles != st.Cycles || resp.Instrs != st.Instrs:
				errs <- fmt.Errorf("run: %d cycles and %d instrs, want %d and %d", resp.Cycles, resp.Instrs, st.Cycles, st.Instrs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses, _ := memoCounts(svc); hits+misses != 2*int64(len(serveZipfConfigs)) || misses < 1 {
		t.Errorf("%d requests: %d parse memo hits and %d misses", 2*len(serveZipfConfigs), hits, misses)
	}
}
