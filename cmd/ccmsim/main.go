// Command ccmsim executes ILOC programs on the paper's abstract machine
// (32+32 registers, single issue, 2-cycle main-memory operations, 1-cycle
// CCM accesses) and prints the instrumented dynamic costs.
//
// Usage:
//
//	ccmsim [-entry main] [-ccm BYTES] [-memcost N] [-trace] [-perfunc]
//	       [-cache SETSxWAYSxLINE] [-max-steps N] [-max-depth N]
//	       [-repro-dir DIR] [-metrics-out FILE] [-version] prog.iloc
//
// -max-steps and -max-depth bound the dynamic instruction count and the
// call-stack depth; exceeding either is a structured resource-limit
// fault, so a nonterminating or runaway-recursive program exits cleanly
// instead of hanging the shell. -repro-dir captures a replayable crash
// repro bundle (the program text, entry point, and error) whenever
// execution fails, in the same format the compiler pipeline uses for
// pass faults.
//
// -metrics-out writes the run's dynamic costs — and, with -cache, the
// data-cache model's hit/miss/eviction counters — as a JSON gauge
// snapshot, the machine-readable companion to the human-readable stats
// on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	ccm "ccmem"
	"ccmem/internal/memsys"
	"ccmem/internal/obs"
	"ccmem/internal/repro"
)

func main() {
	entry := flag.String("entry", "main", "entry function")
	ccmBytes := flag.Int64("ccm", 1024, "CCM capacity in bytes available at run time")
	memCost := flag.Int("memcost", 2, "cycles per main-memory operation")
	trace := flag.Bool("trace", false, "print the emit trace")
	perFunc := flag.Bool("perfunc", false, "print per-function cycle attribution")
	cacheSpec := flag.String("cache", "", "attach a data cache, e.g. 32x1x32 (sets x ways x line bytes)")
	maxSteps := flag.Int64("max-steps", 0, "bound the dynamic instruction count (0 = default)")
	maxDepth := flag.Int("max-depth", 0, "bound the call-stack depth (0 = default)")
	debug := flag.Int64("debug", 0, "trace the first N executed instructions to stderr")
	reproDir := flag.String("repro-dir", "", "write a crash repro bundle to this directory if the run fails")
	metricsOut := flag.String("metrics-out", "", "write run and memory-hierarchy metrics as a JSON gauge snapshot to this file")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccmsim [flags] prog.iloc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := ccm.ParseProgram(string(src))
	if err != nil {
		fatal(err)
	}

	opts := []ccm.RunOption{ccm.WithMemCost(*memCost), ccm.WithCCMBytes(*ccmBytes)}
	if *maxSteps > 0 {
		opts = append(opts, ccm.WithMaxSteps(*maxSteps))
	}
	if *maxDepth > 0 {
		opts = append(opts, ccm.WithMaxDepth(*maxDepth))
	}
	if *debug > 0 {
		opts = append(opts, ccm.WithTrace(os.Stderr, *debug))
	}
	// With -metrics-out the data-cache model is built explicitly so its
	// hit/miss statistics can be read back after the run; WithCache hides
	// the model inside the simulator.
	var memModel memsys.Model
	if *cacheSpec != "" {
		var sets, ways, line int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*cacheSpec, "x", " "), "%d %d %d", &sets, &ways, &line); err != nil {
			fatal(fmt.Errorf("bad -cache %q: %w", *cacheSpec, err))
		}
		cc := memsys.CacheConfig{Sets: sets, Ways: ways, LineBytes: line, HitCost: 1, MissCost: 8}
		if *metricsOut != "" {
			c, cerr := memsys.NewCache(cc)
			if cerr != nil {
				fatal(fmt.Errorf("bad -cache %q: %w", *cacheSpec, cerr))
			}
			memModel = c
			opts = append(opts, ccm.WithMemory(c))
		} else {
			opts = append(opts, ccm.WithCache(cc))
		}
	}

	st, err := prog.Run(*entry, opts...)
	if err != nil {
		if *reproDir != "" {
			b := &repro.Bundle{
				Version: repro.Version,
				Kind:    repro.KindRun,
				Func:    *entry,
				Program: string(src),
				Error:   err.Error(),
			}
			if path, werr := repro.Write(*reproDir, b); werr != nil {
				fmt.Fprintln(os.Stderr, "ccmsim: writing repro bundle:", werr)
			} else {
				fmt.Fprintln(os.Stderr, "ccmsim: repro bundle:", path)
			}
		}
		fatal(err)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, st, memModel); err != nil {
			fatal(err)
		}
	}
	printStats(st, *perFunc, *trace)
}

// writeMetrics publishes the run's dynamic costs (and, when a -cache
// model ran, its hit/miss statistics) into a metrics registry and writes
// the snapshot as JSON. Execution is deterministic, so the file is too.
func writeMetrics(path string, st *ccm.RunStats, model memsys.Model) error {
	reg := obs.NewRegistry()
	reg.Gauge("sim.instrs").Set(st.Instrs)
	reg.Gauge("sim.cycles").Set(st.Cycles)
	reg.Gauge("sim.memop_cycles").Set(st.MemOpCycles)
	reg.Gauge("sim.main_mem_ops").Set(st.MainMemOps)
	reg.Gauge("sim.ccm_ops").Set(st.CCMOps)
	reg.Gauge("sim.spill_stores").Set(st.SpillStores)
	reg.Gauge("sim.spill_loads").Set(st.SpillLoads)
	reg.Gauge("sim.ccm_spills").Set(st.CCMSpills)
	reg.Gauge("sim.ccm_restores").Set(st.CCMRestores)
	if model != nil {
		model.Stats().Publish(reg, "memsys")
	}
	buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func printStats(st *ccm.RunStats, perFunc, trace bool) {
	fmt.Printf("instructions:     %d\n", st.Instrs)
	fmt.Printf("cycles:           %d\n", st.Cycles)
	fmt.Printf("memory-op cycles: %d\n", st.MemOpCycles)
	fmt.Printf("main-memory ops:  %d\n", st.MainMemOps)
	fmt.Printf("ccm ops:          %d (spills %d, restores %d)\n", st.CCMOps, st.CCMSpills, st.CCMRestores)
	fmt.Printf("heavyweight:      spills %d, restores %d\n", st.SpillStores, st.SpillLoads)
	if perFunc {
		names := make([]string, 0, len(st.PerFunc))
		for n := range st.PerFunc {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return st.PerFunc[names[i]].Cycles > st.PerFunc[names[j]].Cycles
		})
		for _, n := range names {
			fs := st.PerFunc[n]
			if fs.Calls == 0 {
				continue
			}
			fmt.Printf("  %-20s calls=%-6d cycles=%-10d mem-cycles=%d\n", n, fs.Calls, fs.Cycles, fs.MemOpCycles)
		}
	}
	if trace {
		for _, v := range st.Output {
			fmt.Println(v)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccmsim:", err)
	os.Exit(1)
}
