package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

var (
	suiteOnce sync.Once
	suiteRes  *SuiteResults
	suiteErr  error
)

// suite runs the full measurement once and shares it across tests.
func suite(t *testing.T) *SuiteResults {
	t.Helper()
	suiteOnce.Do(func() {
		suiteRes, suiteErr = RunSuite(Default())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteRes
}

func TestSuiteShape(t *testing.T) {
	res := suite(t)
	if len(res.Routines) < 40 {
		t.Fatalf("only %d routines", len(res.Routines))
	}
	if len(res.Programs) < 8 {
		t.Fatalf("only %d programs", len(res.Programs))
	}
	spillers := 0
	for _, r := range res.Routines {
		if r.Spills() {
			spillers++
		}
	}
	// The paper: 59 of 122 routines required spill code (~48%).
	if spillers < len(res.Routines)/3 {
		t.Fatalf("only %d of %d routines spill", spillers, len(res.Routines))
	}
}

func TestTable1Invariants(t *testing.T) {
	res := suite(t)
	rows, total := res.Table1()
	if len(rows) < 8 {
		t.Fatalf("only %d compacted routines", len(rows))
	}
	for _, r := range rows {
		if r.After >= r.Before || r.After <= 0 {
			t.Errorf("%s: %d -> %d not a strict improvement", r.Name, r.Before, r.After)
		}
		if r.Before%8 != 0 || r.After%8 != 0 {
			t.Errorf("%s: unaligned byte counts", r.Name)
		}
	}
	ratio := total.Ratio()
	// Paper total: 0.68. Shape check: meaningful overall compaction.
	if ratio >= 0.9 || ratio <= 0.05 {
		t.Fatalf("total compaction ratio %.2f out of plausible range", ratio)
	}
	if !strings.Contains(res.FormatTable1(), "TOTAL") {
		t.Fatal("formatted table lacks TOTAL row")
	}
}

func TestTable2Invariants(t *testing.T) {
	res := suite(t)
	rows := res.Table2(512)
	if len(rows) < 15 {
		t.Fatalf("only %d spilling routines in Table 2", len(rows))
	}
	improvedSomewhere := 0
	for _, r := range rows {
		for st, pair := range r.Ratios {
			cyc, mem := pair[0], pair[1]
			if cyc > 1.0005 || mem > 1.0005 {
				t.Errorf("%s %v: ratio above 1 (%.3f / %.3f) — CCM made it slower", r.Name, st, cyc, mem)
			}
			if cyc <= 0 || mem <= 0 {
				t.Errorf("%s %v: nonpositive ratio", r.Name, st)
			}
			// Memory-op cycles improve at least as much as total cycles
			// (promotion only touches memory operations).
			if mem > cyc+0.0005 {
				t.Errorf("%s %v: mem ratio %.3f worse than total %.3f", r.Name, st, mem, cyc)
			}
			if cyc < 0.995 {
				improvedSomewhere++
			}
		}
	}
	if improvedSomewhere == 0 {
		t.Fatal("no routine improved at all")
	}
}

func TestInterproceduralAtLeastIntra(t *testing.T) {
	res := suite(t)
	for _, size := range res.Config.CCMSizes {
		for _, r := range res.Routines {
			if !r.Spills() {
				continue
			}
			intra, _ := r.Strat[Key{StrategyPostPass, size}].Ratio(r.Base)
			ipa, _ := r.Strat[Key{StrategyPostPassIPA, size}].Ratio(r.Base)
			if ipa > intra+0.0005 {
				t.Errorf("%s @%dB: call-graph post-pass (%.3f) worse than intra (%.3f)",
					r.Name, size, ipa, intra)
			}
		}
	}
}

func TestLargerCCMNeverHurts(t *testing.T) {
	res := suite(t)
	for _, r := range res.Routines {
		if !r.Spills() {
			continue
		}
		for _, st := range Strategies {
			small, _ := r.Strat[Key{st, 512}].Ratio(r.Base)
			large, _ := r.Strat[Key{st, 1024}].Ratio(r.Base)
			if large > small+0.0005 {
				t.Errorf("%s %v: 1024B (%.3f) worse than 512B (%.3f)", r.Name, st, large, small)
			}
		}
	}
}

func TestTable3OnlyImprovements(t *testing.T) {
	res := suite(t)
	rows := res.Table3(512, 1024)
	for _, r := range rows {
		improved := false
		for _, st := range Strategies {
			if r.Large[st][0] < r.Small[st][0]-1e-4 {
				improved = true
			}
		}
		if !improved {
			t.Errorf("%s in Table 3 without improvement", r.Name)
		}
	}
	// fpppp is engineered to overflow 512 bytes: it must appear.
	found := false
	for _, r := range rows {
		if r.Name == "fpppp" {
			found = true
		}
	}
	if !found {
		t.Error("fpppp missing from Table 3")
	}
}

func TestTable4ConsistentWithRows(t *testing.T) {
	res := suite(t)
	t4 := res.Table4()
	for _, st := range Strategies {
		for _, size := range res.Config.CCMSizes {
			cell := t4[Key{st, size}]
			if cell.TotalPct < 0 || cell.TotalPct > 60 {
				t.Errorf("%v @%d: total reduction %.1f%% implausible", st, size, cell.TotalPct)
			}
			if cell.MemPct < cell.TotalPct {
				t.Errorf("%v @%d: memory reduction below total", st, size)
			}
		}
	}
	// The paper's ordering: the call-graph post-pass dominates.
	for _, size := range res.Config.CCMSizes {
		if t4[Key{StrategyPostPassIPA, size}].TotalPct < t4[Key{StrategyPostPass, size}].TotalPct-1e-9 {
			t.Errorf("@%d: interprocedural below intra on weighted average", size)
		}
	}
}

func TestFiguresImprovedSubset(t *testing.T) {
	res := suite(t)
	for figNum, size := range map[int]int64{3: 512, 4: 1024} {
		rows := res.Figure(size)
		if len(rows) == 0 {
			t.Fatalf("figure %d empty", figNum)
		}
		if len(rows) > len(res.Programs) {
			t.Fatalf("figure %d larger than program set", figNum)
		}
		for _, r := range rows {
			best := 1.0
			for _, st := range Strategies {
				if v := r.Ratios[st][0]; v < best {
					best = v
				}
			}
			if best >= 0.995 {
				t.Errorf("figure %d: %s shown without improvement (best %.3f)", figNum, r.Name, best)
			}
		}
		out := res.FormatFigure(figNum, size)
		if !strings.Contains(out, "programs improved") {
			t.Fatalf("figure %d format missing summary", figNum)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Default()
	cfg.CCMSizes = []int64{512}
	a, err := RunRoutineSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRoutineSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FormatTable2(512) != b.FormatTable2(512) {
		t.Fatal("two runs produced different Table 2")
	}
	if a.FormatTable1() != b.FormatTable1() {
		t.Fatal("two runs produced different Table 1")
	}
}

func TestAblationInvariants(t *testing.T) {
	rows, err := Ablation43(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationRoutines) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CCM >= 1.02 {
			t.Errorf("%s: CCM ratio %.3f — promotion hurt under a cache", r.Name, r.CCM)
		}
		if r.VictimCache > 1.0005 {
			t.Errorf("%s: victim cache made things worse (%.3f)", r.Name, r.VictimCache)
		}
		if r.MissBase < 0 || r.MissBase > 1 || r.MissCCM < 0 || r.MissCCM > 1 {
			t.Errorf("%s: miss rates out of range", r.Name)
		}
	}
	if _, err := Ablation43(Default(), []string{"nosuch"}); err == nil {
		t.Fatal("unknown routine accepted")
	}
	if out := FormatAblation(rows); !strings.Contains(out, "CCM") {
		t.Fatal("format broken")
	}
}

func TestFormatTablesRenderEverything(t *testing.T) {
	res := suite(t)
	for name, text := range map[string]string{
		"t1": res.FormatTable1(),
		"t2": res.FormatTable2(512),
		"t3": res.FormatTable3(512, 1024),
		"t4": res.FormatTable4(),
		"f3": res.FormatFigure(3, 512),
		"f4": res.FormatFigure(4, 1024),
	} {
		if len(text) < 40 {
			t.Errorf("%s suspiciously short:\n%s", name, text)
		}
	}
}

func TestMultiProcess(t *testing.T) {
	m, err := MultiProcess(Default(), nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition*int64(len(m.Processes)) > m.CCMBytes {
		t.Fatal("partitions exceed the CCM")
	}
	if m.CopyCycles <= 0 || m.PartitionCycles <= 0 {
		t.Fatal("no cycles measured")
	}
	// Smaller per-process CCM can only slow processes down (or tie).
	if m.PartitionCycles < m.CopyCycles {
		t.Fatalf("partitioned run faster than whole-CCM run: %d < %d",
			m.PartitionCycles, m.CopyCycles)
	}
	if m.CopyPerSwitch <= 0 {
		t.Fatal("no switch cost for spill-heavy processes")
	}
	// At the break-even point, partitioning is at least as good.
	if m.TotalCopy(m.BreakEvenSwitches) < m.PartitionCycles {
		t.Fatalf("break-even miscomputed: copy(%d)=%d < partition=%d",
			m.BreakEvenSwitches, m.TotalCopy(m.BreakEvenSwitches), m.PartitionCycles)
	}
	if out := FormatMultiProc(m); !strings.Contains(out, "context switches") {
		t.Fatal("format broken")
	}
	t.Logf("\n%s", FormatMultiProc(m))

	if _, err := MultiProcess(Default(), []string{"nosuch"}, 1024); err == nil {
		t.Fatal("unknown routine accepted")
	}
	if _, err := MultiProcess(Default(), nil, 8); err == nil {
		t.Fatal("tiny CCM accepted")
	}
}

func TestCycPairRatio(t *testing.T) {
	base := CycPair{Cycles: 200, Mem: 100}
	c, m := CycPair{Cycles: 100, Mem: 40}.Ratio(base)
	if c != 0.5 || m != 0.4 {
		t.Fatalf("ratios %v %v", c, m)
	}
	c, m = CycPair{}.Ratio(CycPair{})
	if c != 1 || m != 1 {
		t.Fatal("zero base must yield 1")
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		StrategyNone:        "Without CCM",
		StrategyPostPass:    "Post-Pass",
		StrategyPostPassIPA: "Post-Pass w/ Call Graph",
		StrategyIntegrated:  "Integrated",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

func TestProgramResultImproved(t *testing.T) {
	p := &ProgramResult{
		Base:  CycPair{Cycles: 1000, Mem: 500},
		Strat: map[Key]CycPair{{StrategyPostPass, 512}: {Cycles: 900, Mem: 400}},
	}
	if !p.Improved(512) {
		t.Fatal("10% improvement not detected")
	}
	p.Strat[Key{StrategyPostPass, 512}] = CycPair{Cycles: 999, Mem: 499}
	if p.Improved(512) {
		t.Fatal("0.1% counted as improvement")
	}
}

func TestByFamily(t *testing.T) {
	res := suite(t)
	rows := res.ByFamily(512)
	if len(rows) < 5 {
		t.Fatalf("only %d families", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Family] {
			t.Fatalf("family %s duplicated", r.Family)
		}
		seen[r.Family] = true
		for _, st := range Strategies {
			if r.Ratio[st] <= 0 || r.Ratio[st] > 1.0005 {
				t.Errorf("family %s %v ratio %.3f out of range", r.Family, st, r.Ratio[st])
			}
		}
	}
	for _, fam := range []string{"fft", "block", "applu", "linalg", "stencil", "dsp"} {
		if !seen[fam] {
			t.Errorf("family %s missing (no spillers?)", fam)
		}
	}
	if out := res.FormatByFamily(512); !strings.Contains(out, "Family") {
		t.Fatal("format broken")
	}
}

func TestWriteReport(t *testing.T) {
	cfg := Default()
	var sb strings.Builder
	if err := WriteReport(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4", "ablation", "multi-process", "Per-family",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short (%d bytes)", len(out))
	}
}

// TestSuiteRunsServedByMemo: a DiffFinal RunSuite simulates only the
// harness runs its driver's memo cannot serve. The oracle's final check
// runs main of each compiled program at the CCM size the harness runs it
// at, so a harness run misses only when that run hit the oracle's 2M-step
// or depth-256 limit and no earlier harness run of the same program was
// kept. A second walk of every variant, each compile now a program-tier
// hit that skips the oracle, is served every run from the memo, and each
// served Stats must equal a fresh sim.Run of the same program and config.
func TestSuiteRunsServedByMemo(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Default()
	cfg.Strict = true
	cfg.DiffCheck = pipeline.DiffFinal
	cfg.Driver = pipeline.New(pipeline.Options{Metrics: reg})
	res, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.Counter("sim.memo_hits").Value(), reg.Counter("sim.memo_misses").Value()
	runs := int64(len(res.Routines)+len(res.Programs)) * int64(1+len(Strategies)*len(cfg.CCMSizes))
	if hits+misses != runs {
		t.Fatalf("%d memo hits and %d misses for %d harness runs", hits, misses, runs)
	}

	type variant struct {
		strat Strategy
		size  int64
	}
	variants := []variant{{StrategyNone, 0}}
	for _, size := range cfg.CCMSizes {
		for _, s := range Strategies {
			variants = append(variants, variant{s, size})
		}
	}
	var inputs []*ir.Program
	for _, r := range workload.All() {
		in, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	for _, bp := range workload.Programs() {
		in, err := bp.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	unservable := map[string]bool{} // runs past the oracle's limits, by program text and CCM size
	for _, in := range inputs {
		for _, v := range variants {
			p, rep, err := compileWith(cfg.Driver, in, v.strat, v.size, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			sc := sim.Config{MemCost: cfg.MemCost, CCMBytes: v.size}
			want, werr := sim.Run(p, "main", sc)
			if werr != nil {
				t.Fatal(werr)
			}
			if want.Instrs > 2_000_000 {
				unservable[fmt.Sprint(p, v.size)] = true
			}
			before := reg.Counter("sim.memo_hits").Value()
			got, err := cfg.Driver.Run(context.Background(), p, rep, sc, "main")
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s under %v/%d: the memo served %+v, %v; sim.Run gives %+v", p.Funcs[0].Name, v.strat, v.size, got, err, want)
			}
			if reg.Counter("sim.memo_hits").Value() != before+1 {
				t.Errorf("%s under %v/%d: a repeated run was simulated again", p.Funcs[0].Name, v.strat, v.size)
			}
		}
	}
	if misses != int64(len(unservable)) {
		t.Errorf("the suite simulated %d harness runs; %d ran past the oracle's limits", misses, len(unservable))
	}
}
