package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ccmem/internal/diskcache"
	"ccmem/internal/workload"
)

// coldILOC compiles seed from scratch with no cache at all and returns
// the canonical output text — the reference every disk-tier scenario
// must reproduce byte-for-byte.
func coldILOC(t *testing.T, seed int64, cfg Config) string {
	t.Helper()
	p := workload.RandomProgram(seed)
	mustCompile(t, New(Options{DisableCache: true}), p, cfg)
	return p.String()
}

// TestDiskRestartProgramHit is the tentpole's happy path: a second
// driver — a "restarted process" sharing only the cache directory —
// answers an identical compile from the persistent tier, byte-identical
// to the first, with the hit visible in the report. At workers 1 and 8,
// each compile makes exactly one persistent lookup, for its program key,
// and the first writes exactly one entry, of kind 6: the persistent
// tiers hold whole programs only.
func TestDiskRestartProgramHit(t *testing.T) {
	cfg := detConfig(Integrated)
	want := coldILOC(t, 11, cfg)
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		a := New(Options{Workers: workers, CacheDir: dir})
		if err := a.DiskCacheErr(); err != nil {
			t.Fatalf("disk tier failed to open: %v", err)
		}
		pa := workload.RandomProgram(11)
		repA := mustCompile(t, a, pa, cfg)
		if pa.String() != want {
			t.Fatalf("workers=%d: disk-backed compile differs from cold compile", workers)
		}
		if ds := repA.Cache.Disk; ds.Hits+ds.Misses != 1 || ds.Writes != 1 {
			t.Errorf("workers=%d: the filling compile made %d disk lookups and %d writes, want 1 and 1", workers, ds.Hits+ds.Misses, ds.Writes)
		}
		arts, err := filepath.Glob(filepath.Join(dir, "*.art"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range arts {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if kind, _, _, err := diskcache.DecodeEntry(data); err != nil || kind != diskKindProgramV2 {
				t.Errorf("workers=%d: %s holds kind %d (%v), want %d", workers, filepath.Base(name), kind, err, diskKindProgramV2)
			}
		}
		if len(arts) != 1 {
			t.Errorf("workers=%d: %d entries on disk, want the program's alone", workers, len(arts))
		}

		b := New(Options{Workers: workers, CacheDir: dir})
		pb := workload.RandomProgram(11)
		rep := mustCompile(t, b, pb, cfg)
		if pb.String() != want {
			t.Fatalf("workers=%d: restarted driver produced different ILOC", workers)
		}
		if !rep.ProgramCacheHit {
			t.Errorf("workers=%d: restarted driver did not hit the persistent program artifact", workers)
		}
		if ds := rep.Cache.Disk; ds.Hits != 1 || ds.Misses != 0 || ds.Writes != 0 {
			t.Errorf("workers=%d: the restarted compile made %d disk hits, %d misses and %d writes, want 1, 0 and 0: %+v",
				workers, ds.Hits, ds.Misses, ds.Writes, rep.Cache)
		}
		if rep.Cache.HitRate <= 0 {
			t.Errorf("workers=%d: hit rate = %v, want > 0", workers, rep.Cache.HitRate)
		}
	}
}

// TestDiskFaultMatrixDeterminism is the core robustness claim: under
// every injected fault — ENOSPC, EIO on every read, a bit flip on every
// read, a crash mid-write — and at workers=1 and workers=8, the
// pipeline's output stays byte-identical to a cold compile. A sick disk
// may cost time, never correctness.
func TestDiskFaultMatrixDeterminism(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 12
	want := coldILOC(t, seed, cfg)

	scenarios := []struct {
		name string
		warm bool // pre-populate the directory with a healthy driver
		arm  func(*diskcache.FaultFS)
	}{
		{"enospc", false, func(f *diskcache.FaultFS) { f.SetWriteBudget(0) }},
		{"eio-every-read", true, func(f *diskcache.FaultFS) {
			f.SetReadHook(func(string, []byte) ([]byte, error) { return nil, diskcache.ErrIO })
		}},
		{"bit-flip-every-read", true, func(f *diskcache.FaultFS) {
			f.SetReadHook(func(_ string, data []byte) ([]byte, error) {
				out := bytes.Clone(data)
				out[len(out)/3] ^= 0x08
				return out, nil
			})
		}},
		{"crash-mid-write", false, func(f *diskcache.FaultFS) { f.CrashAfterBytes(100) }},
	}
	for _, sc := range scenarios {
		for _, workers := range []int{1, 8} {
			t.Run(sc.name, func(t *testing.T) {
				dir := t.TempDir()
				if sc.warm {
					mustCompile(t, New(Options{CacheDir: dir}), workload.RandomProgram(seed), cfg)
				}
				ffs := diskcache.NewFaultFS(nil)
				d := New(Options{Workers: workers, CacheDir: dir, DiskFS: ffs})
				if err := d.DiskCacheErr(); err != nil {
					t.Fatalf("open: %v", err)
				}
				sc.arm(ffs)
				p := workload.RandomProgram(seed)
				rep := mustCompile(t, d, p, cfg)
				if got := p.String(); got != want {
					t.Errorf("workers=%d: output under %s differs from cold compile", workers, sc.name)
				}
				// The compile must have survived without the report hiding
				// the trouble: some counter reflects the scenario.
				ds := rep.Cache.Disk
				if sc.warm && ds.Corruptions == 0 && ds.ReadErrors == 0 {
					t.Errorf("workers=%d %s: no read fault surfaced in the report: %+v", workers, sc.name, ds)
				}
				if !sc.warm && ds.WriteErrors == 0 {
					t.Errorf("workers=%d %s: no write fault surfaced in the report: %+v", workers, sc.name, ds)
				}
			})
		}
	}
}

// TestDiskENOSPCDegradesAndStaysCorrect: a full disk degrades the tier
// to memory-only after the failure limit; compiles keep succeeding and
// the degradation is visible in the report.
func TestDiskENOSPCDegradesAndStaysCorrect(t *testing.T) {
	cfg := detConfig(PostPass)
	ffs := diskcache.NewFaultFS(nil)
	d := New(Options{CacheDir: t.TempDir(), DiskFS: ffs})
	ffs.SetWriteBudget(0)

	var rep *Report
	for seed := int64(20); seed < 24; seed++ {
		want := coldILOC(t, seed, cfg)
		p := workload.RandomProgram(seed)
		rep = mustCompile(t, d, p, cfg)
		if p.String() != want {
			t.Fatalf("seed %d: ENOSPC changed the output", seed)
		}
	}
	ds := rep.Cache.Disk
	if !ds.Degraded || ds.DegradedToMemory != 1 {
		t.Errorf("tier not degraded-to-memory after persistent ENOSPC: %+v", ds)
	}
	// Degraded tier still serves the memory tier: an identical recompile
	// is a full hit.
	p := workload.RandomProgram(23)
	rep2 := mustCompile(t, d, p, cfg)
	if !rep2.ProgramCacheHit {
		t.Error("memory tier stopped working while the disk was degraded")
	}
}

// TestDiskCrashMidWriteThenRecover: driver A's process dies mid-write
// (filesystem gone). Driver B on the same directory sweeps the dead
// temp, serves whatever committed, and recompiles the rest — output
// byte-identical throughout.
func TestDiskCrashMidWriteThenRecover(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 13
	want := coldILOC(t, seed, cfg)
	dir := t.TempDir()

	ffs := diskcache.NewFaultFS(nil)
	a := New(Options{CacheDir: dir, DiskFS: ffs})
	ffs.CrashAfterBytes(200) // dies partway through some artifact write
	pa := workload.RandomProgram(seed)
	mustCompile(t, a, pa, cfg)
	if pa.String() != want {
		t.Fatal("output changed by the mid-write crash")
	}

	temps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) == 0 {
		t.Fatal("crash left no torn temp file (test setup: crash point never reached)")
	}

	b := New(Options{CacheDir: dir})
	if err := b.DiskCacheErr(); err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	pb := workload.RandomProgram(seed)
	rep := mustCompile(t, b, pb, cfg)
	if pb.String() != want {
		t.Fatal("post-crash driver produced different ILOC")
	}
	if rep.Cache.Disk.SweptTemps == 0 {
		t.Errorf("dead temp files not swept on reopen: %+v", rep.Cache.Disk)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("temps survived recovery: %v", left)
	}

	// Third driver: the recovered directory now answers warm.
	c := New(Options{CacheDir: dir})
	pc := workload.RandomProgram(seed)
	rep3 := mustCompile(t, c, pc, cfg)
	if pc.String() != want || !rep3.ProgramCacheHit {
		t.Error("recovered directory did not serve the recompiled artifacts")
	}
}

// TestDiskCorruptionRecompiles: every artifact on disk is bit-flipped
// between two driver lifetimes (bit rot at rest). The second driver must
// detect every corruption, quarantine the entries, and recompile to
// byte-identical output.
func TestDiskCorruptionRecompiles(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 14
	want := coldILOC(t, seed, cfg)
	dir := t.TempDir()

	mustCompile(t, New(Options{CacheDir: dir}), workload.RandomProgram(seed), cfg)

	arts, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no artifacts on disk to corrupt: %v (%v)", arts, err)
	}
	for _, name := range arts {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	b := New(Options{CacheDir: dir})
	pb := workload.RandomProgram(seed)
	rep := mustCompile(t, b, pb, cfg)
	if pb.String() != want {
		t.Fatal("corrupted cache changed the compile output")
	}
	if rep.ProgramCacheHit {
		t.Error("corrupt program artifact was served")
	}
	ds := rep.Cache.Disk
	if ds.Corruptions == 0 || ds.Quarantines == 0 {
		t.Errorf("corruption not surfaced in the report: %+v", ds)
	}
	bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bad) == 0 {
		t.Error("no quarantine files for forensics")
	}
}

// TestDiskOpenFailureIsMemoryOnly: an unusable CacheDir (here: a path
// occupied by a regular file) must not fail the driver — it surfaces via
// DiskCacheErr and the driver runs memory-only.
func TestDiskOpenFailureIsMemoryOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := New(Options{CacheDir: file})
	if d.DiskCacheErr() == nil {
		t.Fatal("no error surfaced for an unusable cache directory")
	}
	cfg := detConfig(PostPass)
	want := coldILOC(t, 15, cfg)
	p := workload.RandomProgram(15)
	rep := mustCompile(t, d, p, cfg)
	if p.String() != want {
		t.Error("memory-only fallback changed the output")
	}
	if rep.Cache.Disk.Writes != 0 || rep.Cache.Disk.Entries != 0 {
		t.Errorf("disk counters nonzero without a disk tier: %+v", rep.Cache.Disk)
	}
}

// TestDegradedCompileNotPersisted extends the no-put-on-failure rule to
// the disk tier: a compile that recovered from a fault must leave no
// program artifact a *fresh driver* could be served. The fault is
// injected via the barrier hook, which keeps caching enabled.
func TestDegradedCompileNotPersisted(t *testing.T) {
	dir := t.TempDir()
	a := New(Options{CacheDir: dir})

	fcfg := detConfig(PostPassInterproc)
	fcfg.passHook = hookFault(PassPostPass, "main")
	frep, err := a.Compile(workload.RandomProgram(21), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if frep.Degraded == 0 {
		t.Fatal("hooked compile did not degrade (test setup broken)")
	}

	// Fresh driver, same directory, identical cache key, bug "fixed":
	// nothing degraded may come back from disk.
	b := New(Options{CacheDir: dir})
	cfg := detConfig(PostPassInterproc)
	rep, err := b.Compile(workload.RandomProgram(21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProgramCacheHit {
		t.Error("degraded program artifact was persisted and served")
	}
	if rep.PerFunc["main"].Degraded != "" {
		t.Error("degradation leaked through the disk tier")
	}
}

// TestCacheStatsJSONShape pins the report surface the CLIs print: the
// cache block carries the computed hit rate and both tier breakdowns,
// with the disk tier's robustness counters present by name.
func TestCacheStatsJSONShape(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(Integrated)
	mustCompile(t, New(Options{CacheDir: dir}), workload.RandomProgram(16), cfg)
	d := New(Options{CacheDir: dir})
	rep := mustCompile(t, d, workload.RandomProgram(16), cfg)

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cache map[string]json.RawMessage `json:"cache"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hits", "misses", "hit_rate", "memory", "disk"} {
		if _, ok := decoded.Cache[key]; !ok {
			t.Errorf("report cache block missing %q: %s", key, raw)
		}
	}
	var disk map[string]json.RawMessage
	if err := json.Unmarshal(decoded.Cache["disk"], &disk); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hits", "misses", "writes", "corruptions", "quarantines",
		"read_errors", "write_errors", "swept_temps", "degraded_to_memory", "bytes"} {
		if _, ok := disk[key]; !ok {
			t.Errorf("disk tier block missing %q: %s", key, decoded.Cache["disk"])
		}
	}
	var rate float64
	if err := json.Unmarshal(decoded.Cache["hit_rate"], &rate); err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate > 1 {
		t.Errorf("hit_rate = %v, want in (0, 1]", rate)
	}
}

// TestDiskCacheBytesBudget: CacheBytes is honored — a tiny budget forces
// evictions rather than unbounded growth, and compiles stay correct.
func TestDiskCacheBytesBudget(t *testing.T) {
	cfg := detConfig(PostPass)
	dir := t.TempDir()
	d := New(Options{CacheDir: dir, CacheBytes: 4096})
	for seed := int64(30); seed < 34; seed++ {
		want := coldILOC(t, seed, cfg)
		p := workload.RandomProgram(seed)
		mustCompile(t, d, p, cfg)
		if p.String() != want {
			t.Fatalf("seed %d: output changed under a tiny disk budget", seed)
		}
	}
	st := d.Cache().Disk().Stats()
	if st.Bytes > 4096 {
		t.Errorf("disk tier over budget: %d bytes", st.Bytes)
	}
}
