package pipeline

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// codecArtifacts compiles a real workload program cold and shapes the
// results into one artifact of each kind, so codec tests exercise the
// exact structures the pipeline persists.
func codecArtifacts(tb testing.TB) (*frontArtifact, *backArtifact, *programArtifact) {
	tb.Helper()
	p := workload.RandomProgram(7)
	d := New(Options{DisableCache: true})
	rep, err := d.Compile(p, Config{Strategy: PostPassInterproc, CCMBytes: 512})
	if err != nil {
		tb.Fatal(err)
	}
	front := &frontArtifact{fn: p.Funcs[0], fr: rep.PerFunc[p.Funcs[0].Name]}
	back := &backArtifact{fn: p.Funcs[len(p.Funcs)-1], compactAfter: 17, webs: 3}
	prog := &programArtifact{funcs: p.Funcs, perFunc: rep.PerFunc}
	return front, back, prog
}

// TestCodecV2RoundTrip: decode∘encode is the identity on real artifacts,
// observed through re-encoding (byte equality is stronger than any
// field-by-field comparison, since the encoding is canonical).
func TestCodecV2RoundTrip(t *testing.T) {
	front, back, prog := codecArtifacts(t)
	for _, tc := range []struct {
		kind uint32
		v    any
	}{
		{diskKindFrontV2, front},
		{diskKindBackV2, back},
		{diskKindProgramV2, prog},
	} {
		payload := encodeArtifact(tc.kind, tc.v)
		got, err := decodeArtifact(tc.kind, payload)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", tc.kind, err)
		}
		if re := encodeArtifact(tc.kind, got); !bytes.Equal(re, payload) {
			t.Errorf("kind %d: decode∘encode is not the identity (%d vs %d bytes)", tc.kind, len(re), len(payload))
		}
	}
}

// FuzzBinaryArtifactDecode is the hostile-input oracle for codec v2: over
// arbitrary bytes, every decoder must either reject or produce an
// artifact whose canonical re-encoding reproduces the input exactly.
// Decoding must never panic and never accept two encodings of one value.
func FuzzBinaryArtifactDecode(f *testing.F) {
	front, back, prog := codecArtifacts(f)
	fe, be, pe := encodeFrontV2(front), encodeBackV2(back), encodeProgramV2(prog)
	f.Add(fe)
	f.Add(be)
	f.Add(pe)
	f.Add([]byte{})
	f.Add([]byte{codecV2Version})
	f.Add(fe[:len(fe)/2])
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	flipped := bytes.Clone(pe)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := decodeFrontV2(data); err == nil {
			if !bytes.Equal(encodeFrontV2(a), data) {
				t.Fatalf("front decode accepted a non-canonical encoding (%d bytes)", len(data))
			}
		}
		if a, err := decodeBackV2(data); err == nil {
			if !bytes.Equal(encodeBackV2(a), data) {
				t.Fatalf("back decode accepted a non-canonical encoding (%d bytes)", len(data))
			}
		}
		if a, err := decodeProgramV2(data); err == nil {
			if !bytes.Equal(encodeProgramV2(a), data) {
				t.Fatalf("program decode accepted a non-canonical encoding (%d bytes)", len(data))
			}
		}
	})
}

// TestProgramDecodeRejectsPerFuncMismatch: a program artifact whose
// report map disagrees with its function list is malformed — served
// per-function accounting must never be silently wrong.
func TestProgramDecodeRejectsPerFuncMismatch(t *testing.T) {
	_, _, prog := codecArtifacts(t)

	// v2: drop one report, then point one at a function that isn't there.
	missing := &programArtifact{funcs: prog.funcs, perFunc: map[string]FuncReport{}}
	if _, err := decodeProgramV2(encodeProgramV2(missing)); err == nil {
		t.Error("v2: program with no reports decoded")
	}
	wrong := map[string]FuncReport{}
	for name, fr := range prog.perFunc {
		wrong["not-"+name] = fr
	}
	if _, err := decodeProgramV2(encodeProgramV2(&programArtifact{funcs: prog.funcs, perFunc: wrong})); err == nil {
		t.Error("v2: program with reports for absent functions decoded")
	}
}

// TestProgramDecodeAllOrNothing: one bad function poisons the whole
// artifact — a payload whose first function is healthy but whose last is
// hollow must be rejected outright, not partially served or partially
// canonicalized.
func TestProgramDecodeAllOrNothing(t *testing.T) {
	_, _, prog := codecArtifacts(t)
	bad := append(append([]*ir.Func{}, prog.funcs...), &ir.Func{Name: "hollow"})
	perFunc := map[string]FuncReport{"hollow": {}}
	for name, fr := range prog.perFunc {
		perFunc[name] = fr
	}

	if _, err := decodeProgramV2(encodeProgramV2(&programArtifact{funcs: bad, perFunc: perFunc})); err == nil {
		t.Error("v2: program with a hollow trailing function decoded")
	}

	// Duplicate function names are equally unservable.
	dup := append(append([]*ir.Func{}, prog.funcs...), prog.funcs[0])
	if _, err := decodeProgramV2(encodeProgramV2(&programArtifact{funcs: dup, perFunc: prog.perFunc})); err == nil {
		t.Error("v2: program with a duplicated function decoded")
	}
}

// TestStaleKindEntryIsSelfHealingMiss: an entry of a retired kind (the
// JSON kinds 1-3 of earlier releases) stored under the exact key a
// compile looks up is one clean miss, on a cache directory and on a
// cache server alike. The compile is byte-identical to a cold one, the
// stale entry is quarantined exactly once, and its v2 replacement serves
// the next process a program-tier hit.
func TestStaleKindEntryIsSelfHealingMiss(t *testing.T) {
	const seed = 21
	const staleKind = 3 // the retired JSON program kind
	cfg := detConfig(Integrated)
	want := coldILOC(t, seed, cfg)
	key := diskcache.Key(programKey(programDigest(workload.RandomProgram(seed), nil), cfg.withDefaults()))
	stale := []byte(`{"funcs":[],"per_func":{}}`)

	// run compiles over the stale entry, then restarts on the same store;
	// storeDir is where the stale entry lives and is quarantined.
	run := func(t *testing.T, opts Options, storeDir string) {
		t.Helper()
		d := New(opts)
		p := workload.RandomProgram(seed)
		if rep := mustCompile(t, d, p, cfg); rep.ProgramCacheHit {
			t.Error("stale entry served a program hit")
		}
		closeRemote(t, d)
		if p.String() != want {
			t.Error("compile over a stale entry differs from cold compile")
		}

		fresh := New(opts)
		defer closeRemote(t, fresh)
		pf := workload.RandomProgram(seed)
		if rep := mustCompile(t, fresh, pf, cfg); !rep.ProgramCacheHit {
			t.Error("v2 replacement did not serve the restarted driver a program hit")
		}
		if pf.String() != want {
			t.Error("restarted compile differs from cold compile")
		}
		bad, err := filepath.Glob(filepath.Join(storeDir, "*.bad"))
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 1 {
			t.Errorf("%d quarantined entries, want exactly the stale one", len(bad))
		}
	}

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		dc, err := diskcache.Open(dir, diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dc.Put(key, staleKind, stale)
		run(t, Options{CacheDir: dir}, dir)
	})
	t.Run("remote", func(t *testing.T) {
		srv, hs := remoteServer(t)
		srv.Store().Put(key, staleKind, stale)
		run(t, Options{RemoteURLs: []string{hs.URL}, RemoteTuning: fastRemoteTuning()}, srv.Store().Dir())
	})
}

// nanProgram builds a program whose float constant is NaN — the value
// encoding/json cannot carry.
func nanProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("main", ir.ClassFloat)
	b.Label("entry")
	x := b.ConstF(math.NaN())
	y := b.ConstF(1.5)
	b.RetVal(b.FAdd(x, y))
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	return &ir.Program{Funcs: []*ir.Func{b.Func()}}
}

// TestCodecV2CarriesNaN: the binary codec is total over floats — the
// same NaN program persists, survives a restart, and hits byte-identical.
func TestCodecV2CarriesNaN(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(Integrated)

	a := New(Options{CacheDir: dir})
	if err := a.DiskCacheErr(); err != nil {
		t.Fatal(err)
	}
	pa := nanProgram(t)
	mustCompile(t, a, pa, cfg)
	want := pa.String()

	b := New(Options{CacheDir: dir})
	pb := nanProgram(t)
	rep := mustCompile(t, b, pb, cfg)
	if !rep.ProgramCacheHit {
		t.Error("NaN program did not hit the persistent tier")
	}
	if pb.String() != want {
		t.Error("NaN program round-tripped differently through the v2 codec")
	}
}
