// Command perfbench is the repository benchmark: it measures the
// compiler's own time on four workloads (paper-table regeneration cold,
// warm from a disk cache, warm from a remote cache server, and a Zipf
// request mix against the ccmd compile service), checks every output,
// and prints one JSON result line.
//
// Usage (from the repository root, after perfbench/run.sh has built the
// binaries):
//
//	perfbench --workload tables-cold --seed 1 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics of a timed run; --trace 1 makes
// a separate traced run of the same workload and seed and prints the
// per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state one invocation shares across its workload: the
// options, where the daemons and scratch directories live, and the
// correctness tally that becomes attempted/failed.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	stamp    string // source digest for the provenance record
	binDir   string // ccmd and ccmcached binaries
	workDir  string // scratch space inside the checkout, emptied per run

	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	details   map[string]any // extra facts for the full result record
}

// attempt records n operations of which bad failed; why describes the
// failure for the log.
func (b *bench) attempt(n, bad int64, why string) {
	b.attempted += n
	if bad > 0 {
		b.failed += bad
		b.problems = append(b.problems, why)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", why)
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed, traced func(*bench) error
}{
	"tables-cold":        {func(b *bench) error { return timedTables(b, modeCold) }, func(b *bench) error { return tracedTables(b, modeCold) }},
	"tables-warm-disk":   {func(b *bench) error { return timedTables(b, modeDisk) }, func(b *bench) error { return tracedTables(b, modeDisk) }},
	"tables-warm-remote": {func(b *bench) error { return timedTables(b, modeRemote) }, func(b *bench) error { return tracedTables(b, modeRemote) }},
	"serve-zipf":         {timedServe, tracedServe},
}

func main() {
	name := flag.String("workload", "", "workload to run: tables-cold, tables-warm-disk, tables-warm-remote, serve-zipf")
	seed := flag.Int64("seed", 1, "workload seed (serve-zipf request sequence and random-program inputs)")
	seconds := flag.Int("seconds", 8, "how long the timed region measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the ccmd and ccmcached binaries")
	workDir := flag.String("work", ".bench_build/work", "scratch directory for cache stores")
	stamp := flag.String("source-sha256", "unknown", "digest of the sources the binaries were built from (run.sh passes its build stamp)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		ctx:      context.Background(),
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		stamp:    *stamp,
		metrics:  map[string]metric{},
		details:  map[string]any{},
	}
	run := w.timed
	if b.trace {
		run = w.traced
	}
	if err := runIn(b, *binDir, *workDir, run); err != nil {
		fatal(err)
	}
	report(b)
}

// runIn runs the workload with a private scratch directory under
// workDir, removed afterwards.
func runIn(b *bench, binDir, workDir string, run func(*bench) error) error {
	var err error
	if b.binDir, err = filepath.Abs(binDir); err != nil {
		return err
	}
	if b.workDir, err = filepath.Abs(filepath.Join(workDir, fmt.Sprintf("%s-%d", b.workload, os.Getpid()))); err != nil {
		return err
	}
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.workDir)
	if err := run(b); err != nil {
		return err
	}
	if b.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// report prints the metrics one per line, then the full record (seed,
// provenance, failure ratio, details), then the one-line summary the
// benchmark contract reads.
func report(b *bench) {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("%-32s %14.6f %s\n", n, m.Value, m.Unit)
	}
	failRatio := float64(b.failed) / float64(b.attempted)
	fmt.Printf("%-32s %14.6f %s\n", "fail_ratio", failRatio, "ratio")
	record := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.trace,
		"provenance": provenance(b.stamp),
		"fail_ratio": failRatio,
		"problems":   b.problems,
		"details":    b.details,
		"metrics":    b.metrics,
	}
	line, err := json.Marshal(record)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result %s\n", line)
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(summary))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
