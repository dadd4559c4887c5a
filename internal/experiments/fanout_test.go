package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// TestMeasureInputs pins the harness pool's contract on a fake loop:
// index order at one worker, dependency waits, the lowest ready input
// handed out first, the lowest-index error, and a done context that
// stops the hand-out.
func TestMeasureInputs(t *testing.T) {
	members := [][]string{{"a"}, {"b"}, {"a", "c"}, {"d"}, {"c"}, {"e"}, {"b", "d"}, {"f"}}
	// after lists, for each input, every earlier input sharing a member.
	after := [][]int{nil, nil, {0}, nil, {2}, nil, {1, 3}, nil}

	t.Run("one worker is the sequential loop", func(t *testing.T) {
		var order []int
		err := measureInputs(context.Background(), 1, members, func(i int) error {
			order = append(order, i)
			return nil
		})
		if err != nil || !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
			t.Fatalf("order %v, err %v", order, err)
		}
	})

	t.Run("an input waits for every earlier input sharing a member", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			var mu sync.Mutex
			finished := make([]bool, len(members))
			var bad []string
			err := measureInputs(context.Background(), 8, members, func(i int) error {
				mu.Lock()
				for _, j := range after[i] {
					if !finished[j] {
						bad = append(bad, fmt.Sprintf("input %d started while input %d ran", i, j))
					}
				}
				mu.Unlock()
				time.Sleep(time.Duration(len(members)-i) * 100 * time.Microsecond)
				mu.Lock()
				finished[i] = true
				mu.Unlock()
				return nil
			})
			if err != nil || len(bad) > 0 {
				t.Fatalf("err %v; %v", err, bad)
			}
			for i, ok := range finished {
				if !ok {
					t.Fatalf("input %d never measured", i)
				}
			}
		}
	})

	t.Run("a later input runs while an earlier one waits", func(t *testing.T) {
		// Input 1 waits for input 0, with which it shares a member, so at
		// two workers the second one must take input 2 while input 0 runs.
		twoStarted := make(chan struct{})
		err := measureInputs(context.Background(), 2, [][]string{{"a"}, {"a"}, {"b"}}, func(i int) error {
			switch i {
			case 0:
				select {
				case <-twoStarted:
				case <-time.After(10 * time.Second):
					return errors.New("input 2 did not start while input 1 waited on input 0")
				}
			case 2:
				close(twoStarted)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("the lowest-index error wins", func(t *testing.T) {
		three := make(chan struct{})
		err := measureInputs(context.Background(), 4, members, func(i int) error {
			switch i {
			case 1:
				<-three // fail only after a later input has failed
				return errors.New("input 1")
			case 3:
				close(three)
				return errors.New("input 3")
			}
			return nil
		})
		if err == nil || err.Error() != "input 1" {
			t.Fatalf("err %v, want input 1's", err)
		}
	})

	t.Run("a done context hands out nothing more", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, workers := range []int{1, 8} {
			var ran []int
			var mu sync.Mutex
			err := measureInputs(ctx, workers, members, func(i int) error {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("input %d: %w", i, err)
				}
				return nil
			})
			if err == nil || err.Error() != "input 0: context canceled" || !reflect.DeepEqual(ran, []int{0}) {
				t.Fatalf("workers=%d: err %v, ran %v; want input 0's error, and only input 0 run", workers, err, ran)
			}
		}
	})
}

// TestInputsShareFunctionsOnlyThroughMembers pins the premise of the
// harness pool's dependency rule over the built inputs: no two suite
// routines share a function, and two whole programs share one exactly
// when their Members overlap. Functions are compared by printed text,
// which every cache key and memo digest hashes a superset of, so inputs
// the pool runs at once never share a key. A workload edit that breaks
// this must fail here rather than make hit flags depend on scheduling.
func TestInputsShareFunctionsOnlyThroughMembers(t *testing.T) {
	owner := map[string]string{} // printed function → routine
	for _, r := range workload.All() {
		p, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Funcs {
			text := f.String()
			if o, ok := owner[text]; ok {
				t.Errorf("routines %s and %s share function %s", o, r.Name, f.Name)
			}
			owner[text] = r.Name
		}
	}

	bps := workload.Programs()
	funcs := make([]map[string]bool, len(bps))
	for i, bp := range bps {
		p, err := bp.Build()
		if err != nil {
			t.Fatal(err)
		}
		funcs[i] = map[string]bool{}
		for _, f := range p.Funcs {
			funcs[i][f.String()] = true
		}
	}
	var pairs []string
	for i := range bps {
		for j := i + 1; j < len(bps); j++ {
			shared := 0
			for text := range funcs[j] {
				if funcs[i][text] {
					shared++
				}
			}
			overlap := len(sharedEarlier([][]string{bps[i].Members, bps[j].Members})[1]) > 0
			if (shared > 0) != overlap {
				t.Errorf("programs %s and %s share %d functions, members overlap: %v", bps[i].Name, bps[j].Name, shared, overlap)
			}
			if shared > 0 {
				pairs = append(pairs, fmt.Sprintf("%s–%s %d", bps[i].Name, bps[j].Name, shared))
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no two programs share a function: the comparison sees nothing")
	}
	t.Logf("programs sharing functions: %s", strings.Join(pairs, ", "))
}

// evaluation is one run of ccmbench's default evaluation (the §2.1 and
// §4.3 studies, then every table and figure) on a fresh strict driver
// with the final oracle, metrics and a tracer.
type evaluation struct {
	text  string
	rep   *pipeline.Report // the driver's cumulative report, registry snapshot included
	trace []byte
}

func evaluate(t *testing.T, workers int) *evaluation {
	t.Helper()
	cfg := Default()
	cfg.Strict = true
	cfg.DiffCheck = pipeline.DiffFinal
	cfg.Driver = pipeline.New(pipeline.Options{Workers: workers, Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()})
	m, err := MultiProcess(cfg, nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Ablation43(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, s := range []string{
		FormatMultiProc(m), FormatAblation(rows),
		res.FormatTable1(), res.FormatTable2(512), res.FormatTable3(512, 1024), res.FormatTable4(),
		res.FormatFigure(3, 512), res.FormatFigure(4, 1024), res.FormatByFamily(512),
	} {
		text.WriteString(s)
	}
	var trace bytes.Buffer
	if err := cfg.Driver.Tracer().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	return &evaluation{text: text.String(), rep: cfg.Driver.Metrics(), trace: trace.Bytes()}
}

// TestFanOutDeterminism is the harness's determinism contract: measured
// one input at a time or eight at once, the evaluation prints the same
// tables and figures, and the driver ends with the same cumulative
// report (pass runs and instruction counts, program hits, oracle and
// cache totals) and the same registry counters and gauges, with no
// memory-tier eviction. The fanned-out evaluation's exported spans must
// nest on every track.
func TestFanOutDeterminism(t *testing.T) {
	const workers = 8
	one, many := evaluate(t, 1), evaluate(t, workers)
	t.Run("spans nest on every track", func(t *testing.T) { spansNest(t, many.trace, workers) })
	if one.text != many.text {
		t.Errorf("formatted output differs:\n workers=1:\n%s\n workers=8:\n%s", one.text, many.text)
	}

	// Everything in the cumulative report but the worker count and the
	// wall clock must match; the registry is compared below, without its
	// wall-clock histograms.
	strip := func(rep *pipeline.Report) pipeline.Report {
		r := *rep
		r.Workers, r.WallNanos, r.Metrics = 0, 0, nil
		r.Passes = append([]pipeline.PassStat(nil), rep.Passes...)
		for i := range r.Passes {
			r.Passes[i].WallNanos = 0
		}
		return r
	}
	if a, b := strip(one.rep), strip(many.rep); !reflect.DeepEqual(a, b) {
		t.Errorf("cumulative reports differ:\n workers=1: %+v\n workers=8: %+v", a, b)
	}
	if one.rep.Cache.Evictions != 0 || many.rep.Cache.Evictions != 0 {
		t.Errorf("the memory tier evicted %d and %d entries; the contract assumes none",
			one.rep.Cache.Evictions, many.rep.Cache.Evictions)
	}
	if one.rep.ProgramHits == 0 || one.rep.DiffRuns == 0 {
		t.Errorf("no program hits or oracle runs to compare: %+v", strip(one.rep))
	}
	if x, y := one.rep.Metrics.Counters, many.rep.Metrics.Counters; !reflect.DeepEqual(x, y) {
		t.Errorf("counters differ:\n workers=1: %v\n workers=8: %v", x, y)
	}
	if x, y := one.rep.Metrics.Gauges, many.rep.Metrics.Gauges; !reflect.DeepEqual(x, y) {
		t.Errorf("gauges differ:\n workers=1: %v\n workers=8: %v", x, y)
	}
}

// spansNest checks an exported trace of an evaluation on a driver with
// the given workers. Its inputs overlapped, and so did their compiles on
// the one tracer, but each compile records on its own block of tids, so
// spans still nest on every (pid, tid) track.
func spansNest(t *testing.T, exported []byte, workers int) {
	var trace struct {
		TraceEvents []struct {
			TS, Dur  float64
			PID, TID int
			Name     string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(exported, &trace); err != nil {
		t.Fatal(err)
	}
	type span struct {
		start, end int64
		name       string
	}
	tracks := map[[2]int][]span{}
	maxTID := 0
	for _, e := range trace.TraceEvents {
		start := int64(math.Round(e.TS * 1e3))
		k := [2]int{e.PID, e.TID}
		tracks[k] = append(tracks[k], span{start, start + int64(math.Round(e.Dur*1e3)), e.Name})
		maxTID = max(maxTID, e.TID)
	}
	spans, bad := 0, 0
	for k, ss := range tracks {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end
		})
		var open []span
		for _, s := range ss {
			for len(open) > 0 && open[len(open)-1].end <= s.start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && s.end > open[len(open)-1].end {
				if bad < 5 {
					t.Errorf("track %v: %s [%d, %d] overlaps %s [%d, %d]", k, s.name, s.start, s.end,
						open[len(open)-1].name, open[len(open)-1].start, open[len(open)-1].end)
				}
				bad++
			}
			open = append(open, s)
		}
		spans += len(ss)
	}
	if bad > 0 {
		t.Errorf("%d of %d spans badly nested", bad, spans)
	}
	if maxTID <= workers {
		t.Errorf("every span lies on tids 0..%d: no two compiles overlapped, so nothing was tested", workers)
	}
}

// TestFanOutErrors: a strict loop fails with the sequential loop's error
// at any worker count, whether every compile rejects its config, the
// context is cancelled before the loop starts, or one input in the middle
// is bad.
func TestFanOutErrors(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	loops := func(cfg Config) []error {
		_, routines := RunRoutineSuite(cfg)
		_, programs := RunProgramSuite(cfg)
		_, ablation := Ablation43(cfg, nil)
		_, multi := MultiProcess(cfg, nil, 1024)
		return []error{routines, programs, ablation, multi}
	}
	for _, tc := range []struct {
		name     string
		set      func(*Config)
		routines string // RunRoutineSuite's error
	}{
		{"bad config", func(c *Config) { c.IntRegs = -1 },
			"routine radb2: pipeline: register counts must be >= 0, got IntRegs -1, FloatRegs 32"},
		{"cancelled", func(c *Config) { c.Ctx = cancelled }, "routine radb2: pipeline: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []error
			for _, workers := range []int{1, 8} {
				cfg := Default()
				cfg.Strict = true
				tc.set(&cfg)
				cfg.Driver = pipeline.New(pipeline.Options{Workers: workers})
				errs := loops(cfg)
				if workers == 1 {
					want = errs
					if errs[0] == nil || errs[0].Error() != tc.routines {
						t.Fatalf("RunRoutineSuite: %v, want %s", errs[0], tc.routines)
					}
				}
				for i, err := range errs {
					if err == nil || err.Error() != want[i].Error() {
						t.Errorf("workers=%d, loop %d: %v, want %v", workers, i, err, want[i])
					}
				}
			}
		})
	}
	t.Run("bad input mid-loop", func(t *testing.T) {
		for _, workers := range []int{1, 8} {
			cfg := Default()
			cfg.Driver = pipeline.New(pipeline.Options{Workers: workers})
			_, err := Ablation43(cfg, []string{"saturr", "nosuch", "radb5X", "nosuch2"})
			if err == nil || err.Error() != `ablation: unknown routine "nosuch"` {
				t.Errorf("workers=%d: %v, want the first unknown routine", workers, err)
			}
		}
	})
}
