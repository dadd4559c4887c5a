package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// MultiProcResult quantifies the paper's §2.1/§5 multi-process design
// point: "we would want to add a system-controlled base register to
// provide each process with its own small region within the CCM. This
// would allow the system to avoid copying the CCM contents to main memory
// on context switches."
//
// Two operating-system policies are compared for a set of processes
// sharing one CCM:
//
//   - Copy: each process gets the whole CCM; on every context switch the
//     kernel saves and restores the live CCM region through main memory
//     (2 × used-slots × MemCost cycles per switch).
//   - Partition: the CCM is split into per-process regions selected by a
//     base register; switches cost nothing, but each process compiles
//     against a smaller CCM.
type MultiProcResult struct {
	Processes []string
	CCMBytes  int64
	Partition int64 // bytes per process under the base-register policy

	CopyCycles      int64 // Σ process cycles under whole-CCM compilation
	CopyPerSwitch   int64 // CCM save/restore cost of one context switch
	PartitionCycles int64 // Σ process cycles under partitioned compilation

	// BreakEvenSwitches is the context-switch count at which the
	// base-register design starts winning.
	BreakEvenSwitches int64
}

// TotalCopy returns the copy policy's total for a given switch count.
func (m *MultiProcResult) TotalCopy(switches int64) int64 {
	return m.CopyCycles + switches*m.CopyPerSwitch
}

// MultiProcess runs the comparison for the named routines (defaults to a
// spill-heavy trio) sharing a CCM of the given size.
func MultiProcess(cfg Config, names []string, ccmBytes int64) (*MultiProcResult, error) {
	if len(names) == 0 {
		names = []string{"fpppp", "saturr", "radb5X"}
	}
	n := int64(len(names))
	partition := (ccmBytes / n) / 8 * 8
	if partition <= 0 {
		return nil, fmt.Errorf("experiments: CCM %d too small for %d processes", ccmBytes, n)
	}
	res := &MultiProcResult{Processes: names, CCMBytes: ccmBytes, Partition: partition}
	drv := cfg.driver()

	// Each process is measured on its own, up to Driver.Workers at once,
	// and the totals are summed in process order.
	type process struct{ copyCycles, perSwitch, partitionCycles int64 }
	procs := make([]process, len(names))
	err := measureInputs(cfg.ctx(), drv.Workers(), routineMembers(names), func(i int) error {
		name := names[i]
		r, ok := workload.Lookup(name)
		if !ok {
			return fmt.Errorf("experiments: unknown routine %q", name)
		}

		in, err := r.Build()
		if err != nil {
			return err
		}

		// Copy policy: the process sees the whole CCM.
		p, rep, err := compileWith(drv, in, StrategyPostPassIPA, ccmBytes, cfg, false)
		if err != nil {
			return err
		}
		maxUsed := int64(0)
		for _, f := range p.Funcs {
			if f.CCMBytes > maxUsed {
				maxUsed = f.CCMBytes
			}
		}
		st, err := runProgram(drv, p, rep, cfg, sim.Config{CCMBytes: ccmBytes})
		if err != nil {
			return err
		}
		procs[i].copyCycles = st.Cycles
		// Saving + restoring the used region through 2-cycle memory.
		procs[i].perSwitch = 2 * (maxUsed / 8) * int64(cfg.MemCost)

		// Partition policy: compiled against the smaller region, executed
		// at this process's base register — the simulator enforces that no
		// access escapes the partition.
		q, rep, err := compileWith(drv, in, StrategyPostPassIPA, partition, cfg, false)
		if err != nil {
			return err
		}
		st2, err := runProgram(drv, q, rep, cfg, sim.Config{CCMBytes: ccmBytes, CCMBase: int64(i) * partition})
		if err != nil {
			return fmt.Errorf("partition isolation violated for %s: %w", name, err)
		}
		procs[i].partitionCycles = st2.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pr := range procs {
		res.CopyCycles += pr.copyCycles
		res.CopyPerSwitch += pr.perSwitch
		res.PartitionCycles += pr.partitionCycles
	}

	// Partition wins once s * CopyPerSwitch > PartitionCycles - CopyCycles.
	delta := res.PartitionCycles - res.CopyCycles
	switch {
	case res.CopyPerSwitch == 0:
		res.BreakEvenSwitches = 0
	case delta <= 0:
		res.BreakEvenSwitches = 0 // partitioning wins immediately
	default:
		res.BreakEvenSwitches = delta/res.CopyPerSwitch + 1
	}
	return res, nil
}

// FormatMultiProc renders the comparison.
func FormatMultiProc(m *MultiProcResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-process CCM (§2.1): %d processes sharing %d bytes\n",
		len(m.Processes), m.CCMBytes)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "policy\tcompile-time CCM\tprocess cycles\tswitch cost\n")
	fmt.Fprintf(w, "copy on switch\t%d B each\t%d\t%d/switch\n", m.CCMBytes, m.CopyCycles, m.CopyPerSwitch)
	fmt.Fprintf(w, "base register\t%d B each\t%d\t0\n", m.Partition, m.PartitionCycles)
	w.Flush()
	fmt.Fprintf(&b, "base-register partitioning wins beyond %d context switches\n", m.BreakEvenSwitches)
	return b.String()
}
