package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pointwiseMedians returns, for each position i, the median of runs[k][i]
// over the runs; every run must hold the same operations in the same order.
func pointwiseMedians(runs [][]float64) []float64 {
	out := make([]float64, len(runs[0]))
	col := make([]float64, len(runs))
	for i := range out {
		for k, r := range runs {
			col[k] = r[i]
		}
		out[i] = median(col)
	}
	return out
}

// millis converts durations to milliseconds, each scaled by scale (the
// steal correction of the interval they were measured in).
func millis(ds []time.Duration, scale float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = scale * float64(d) / float64(time.Millisecond)
	}
	return out
}

// ledger accumulates span time by layer name. Spans come only from the
// benchmark's own code, around its calls into each layer. A nil ledger
// records nothing, so the untraced paths share the same code.
type ledger map[string]time.Duration

// span times fn under name.
func (l ledger) span(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	l[name] += time.Since(t)
}

func (l ledger) seconds(name string) float64 { return l[name].Seconds() }

// stopwatch times an interval in wall time and in steal-corrected time.
//
// On a virtual machine whose host is oversubscribed, the hypervisor
// takes the CPUs away for a share of every interval ("steal"), and wall
// times stretch by up to half with nothing changed in the program. The
// corrected time removes that share: wall × (1 − steal share of all CPU
// time over the interval), both read from the first line of /proc/stat.
// Without steal, or without /proc/stat, corrected time is wall time.
type stopwatch struct {
	start        time.Time
	steal, total uint64
}

func startWatch() stopwatch {
	w := stopwatch{start: time.Now()}
	w.steal, w.total = cpuTicks()
	return w
}

// stop returns the wall time and the steal-corrected time since start.
func (w stopwatch) stop() (wall, corrected time.Duration) {
	wall = time.Since(w.start)
	steal, total := cpuTicks()
	if total <= w.total {
		return wall, wall
	}
	share := float64(steal-w.steal) / float64(total-w.total)
	return wall, time.Duration(float64(wall) * (1 - share))
}

// cpuTicks reads the steal and total tick counters of all CPUs.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB;
// 0 when /proc is unavailable.
func peakRSSMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance stamps a result with what produced it: the commit (when the
// checkout is a git work tree), the source stamp run.sh built from (always,
// since a benchmark checkout need not be a repository), the toolchain,
// and the machine.
func provenance(sourceStamp string) map[string]any {
	commit, dirty := "unknown", false
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		// Only the checkout itself counts: never a repository around it.
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		return cmd.Output()
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return map[string]any{
		"commit":        commit,
		"dirty":         dirty,
		"source_sha256": sourceStamp,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
