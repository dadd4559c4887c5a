package main

import (
	"fmt"
	"os"

	"ccmem/internal/pipeline"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Each traced run reports all of them; a layer the workload does
// not exercise reads 0. README.md maps each to the end-to-end metric it
// should move.
var perLayer = []struct{ name, unit string }{
	{"opt.busy_s", "s"},
	{"opt.instrs_removed", "count"},
	{"regalloc.busy_s", "s"},
	{"regalloc.instrs_added", "count"},
	{"core.postpass.busy_s", "s"},
	{"core.promoted_webs", "count"},
	{"core.compact.busy_s", "s"},
	{"ir.verify.busy_s", "s"},
	{"oracle.busy_s", "s"},
	{"oracle.runs", "count"},
	{"oracle.inconclusive", "count"},
	{"sim.busy_s", "s"},
	{"sim.instrs", "count"},
	{"sim.minstrs_per_s", "Minstr/s"},
	{"workload.build_s", "s"},
	{"pipeline.compile_s", "s"},
	{"pipeline.compiles", "count"},
	{"pipeline.funcs", "count"},
	{"pipeline.overhead_s", "s"},
	{"pipeline.lookup_s", "s"},
	{"pipeline.program_hit_ratio", "ratio"},
	{"pipeline.cache.mem.evictions", "count"},
	{"diskcache.hit_ratio", "ratio"},
	{"diskcache.corruptions", "count"},
	{"diskcache.writes", "count"},
	{"diskcache.bytes", "bytes"},
	{"remotecache.hit_ratio", "ratio"},
	{"remotecache.retries", "count"},
	{"remotecache.timeouts", "count"},
	{"remotecache.net_errors", "count"},
	{"ccmd.decode_s", "s"},
	{"ir.parse_s", "s"},
	{"ir.verify_s", "s"},
	{"ir.print_s", "s"},
	{"ccmd.encode_s", "s"},
	{"ccmd.hit_rtt_ms.p50", "ms"},
	{"ccmd.miss_rtt_ms.p50", "ms"},
	{"ccmd.wait_s", "s"},
	{"ccmd.rejected", "count"},
	{"unattributed_share", "ratio"},
	{"trace_overhead_share", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// setLayers reports every per-layer metric, taking values from vals and
// 0 for layers the workload did not exercise.
func (b *bench) setLayers(vals map[string]float64) {
	known := map[string]bool{}
	for _, l := range perLayer {
		known[l.name] = true
		b.set(l.name, vals[l.name], l.unit)
	}
	for name := range vals {
		if !known[name] {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not in the table", name))
		}
	}
}

// passLayers derives the pass and oracle layers from a ledger of replay
// spans and the counts read from the driver's reports.
func passLayers(v map[string]float64, led ledger, c counts) {
	v["opt.busy_s"] = led.seconds("opt")
	v["opt.instrs_removed"] = float64(c.InstrsBefore[pipeline.PassOptimize] - c.InstrsAfter[pipeline.PassOptimize])
	v["regalloc.busy_s"] = led.seconds("regalloc")
	v["regalloc.instrs_added"] = float64(c.InstrsAfter[pipeline.PassRegalloc] - c.InstrsBefore[pipeline.PassRegalloc])
	v["core.postpass.busy_s"] = led.seconds("core.postpass")
	v["core.promoted_webs"] = float64(c.PromotedWebs)
	v["core.compact.busy_s"] = led.seconds("core.compact")
	v["ir.verify.busy_s"] = led.seconds("ir.verify")
	v["oracle.busy_s"] = led.seconds("oracle")
	v["oracle.runs"] = float64(c.OracleRuns)
	v["oracle.inconclusive"] = float64(c.OracleInconcl)
	v["pipeline.compiles"] = float64(c.Compiles)
	v["pipeline.funcs"] = float64(c.Funcs)
	v["pipeline.program_hit_ratio"] = ratio(c.ProgramHits, c.Compiles)
	v["pipeline.cache.mem.evictions"] = float64(c.MemEvictions)
	passes := 0.0
	for _, n := range []string{"opt", "regalloc", "core.postpass", "core.compact", "ir.verify", "oracle"} {
		passes += led.seconds(n)
	}
	v["pipeline.overhead_s"] = led.seconds("pipeline.miss") - passes
	v["peak_rss_mb"] = peakRSSMB(os.Getpid())
}

// cacheLayers reads the cache tiers' accounting from a driver's
// cumulative report.
func cacheLayers(v map[string]float64, rep *pipeline.Report) {
	disk, remote := rep.Cache.Disk, rep.Cache.Remote
	v["diskcache.hit_ratio"] = ratio(disk.Hits, disk.Hits+disk.Misses)
	v["diskcache.corruptions"] = float64(disk.Corruptions)
	v["remotecache.hit_ratio"] = ratio(remote.Hits, remote.Hits+remote.Misses)
	v["remotecache.retries"] = float64(remote.Retries)
	v["remotecache.timeouts"] = float64(remote.Timeouts)
	v["remotecache.net_errors"] = float64(remote.NetErrors)
}
