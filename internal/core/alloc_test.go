package core

import (
	"runtime"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// fppppProgram builds the fpppp benchmark program, allocated at 32
// registers per class, ready for PostPass.
func fppppProgram(t *testing.T) *ir.Program {
	t.Helper()
	for _, bp := range workload.Programs() {
		if bp.Name == "fpppp" {
			p, err := bp.Build()
			if err != nil {
				t.Fatal(err)
			}
			allocAll(t, p, 32)
			return p
		}
	}
	t.Fatal("no fpppp program")
	return nil
}

// TestAllocGuardPostPassHugeCCM pins colorIntoCCM's flag array to the
// webs it colours rather than the CCM: at the largest CCM the simulator
// accepts, promoting fpppp must allocate about what it does at 512 B,
// not a flag per CCM slot per function.
func TestAllocGuardPostPassHugeCCM(t *testing.T) {
	p := fppppProgram(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := PostPass(p, PostPassOptions{CCMBytes: sim.MaxCCMBytes, Interprocedural: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPromoted() == 0 {
		t.Fatal("nothing promoted; the guard measures nothing")
	}
	const budget = 32 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("PostPass at %d B: %d KiB allocated", int64(sim.MaxCCMBytes), got>>10)
	if got >= budget {
		t.Errorf("PostPass at %d B allocated %d MiB, want under %d MiB", int64(sim.MaxCCMBytes), got>>20, budget>>20)
	}
}

// TestPostPassHugeCCMSameCode: a CCM far larger than any footprint
// promotes exactly as a CCM that merely covers it, so bounding the
// colouring flags by web degree changes no assignment.
func TestPostPassHugeCCMSameCode(t *testing.T) {
	progs := []*ir.Program{fppppProgram(t)}
	for seed := int64(1); seed <= 8; seed++ {
		p := workload.RandomProgram(seed)
		allocAll(t, p, 8)
		progs = append(progs, p)
	}
	for i, p := range progs {
		for _, ipa := range []bool{false, true} {
			small, huge := p.Clone(), p.Clone()
			if _, err := PostPass(small, PostPassOptions{CCMBytes: 64 << 10, Interprocedural: ipa}); err != nil {
				t.Fatal(err)
			}
			if _, err := PostPass(huge, PostPassOptions{CCMBytes: sim.MaxCCMBytes, Interprocedural: ipa}); err != nil {
				t.Fatal(err)
			}
			if small.String() != huge.String() {
				t.Errorf("program %d, interprocedural=%v: ILOC differs between 64 KiB and %d B", i, ipa, int64(sim.MaxCCMBytes))
			}
		}
	}
}
