package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// codecArtifact compiles a real workload program cold and shapes the
// result into a program artifact, so codec tests exercise the exact
// structure the pipeline persists.
func codecArtifact(tb testing.TB) *programArtifact {
	tb.Helper()
	p := workload.RandomProgram(7)
	d := New(Options{DisableCache: true})
	rep, err := d.Compile(p, Config{Strategy: PostPassInterproc, CCMBytes: 512})
	if err != nil {
		tb.Fatal(err)
	}
	return &programArtifact{funcs: p.Funcs, perFunc: rep.PerFunc}
}

// TestCodecV2RoundTrip: decode∘encode is the identity on a real program
// artifact, observed through re-encoding (byte equality is stronger than
// any field-by-field comparison, since the encoding is canonical).
func TestCodecV2RoundTrip(t *testing.T) {
	payload := encodeProgramV2(codecArtifact(t))
	got, err := decodeProgramV2(payload)
	if err != nil {
		t.Fatalf("kind %d: decode: %v", diskKindProgramV2, err)
	}
	if re := encodeProgramV2(got); !bytes.Equal(re, payload) {
		t.Errorf("kind %d: decode∘encode is not the identity (%d vs %d bytes)", diskKindProgramV2, len(re), len(payload))
	}
}

// FuzzBinaryArtifactDecode is the hostile-input oracle for codec v2: over
// arbitrary bytes, the program decoder must either reject or produce an
// artifact whose canonical re-encoding reproduces the input exactly.
// Decoding must never panic and never accept two encodings of one value.
func FuzzBinaryArtifactDecode(f *testing.F) {
	prog := codecArtifact(f)
	pe := encodeProgramV2(prog)
	one := encodeProgramV2(&programArtifact{funcs: prog.funcs[:1],
		perFunc: map[string]FuncReport{prog.funcs[0].Name: prog.perFunc[prog.funcs[0].Name]}})
	f.Add(pe)
	f.Add(one)
	f.Add(append(bytes.Clone(one), 0))
	f.Add([]byte{})
	f.Add([]byte{codecV2Version})
	f.Add(pe[:len(pe)/2])
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	flipped := bytes.Clone(pe)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
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
	prog := codecArtifact(t)

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
	prog := codecArtifact(t)
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

// TestStaleKindEntryIsSelfHealingMiss: an entry of a reserved kind
// stored under the exact key a compile looks up is one clean miss, on a
// cache directory and on a cache server alike. The rows are the retired
// JSON program kind 3 and the codec v2 front and back kinds 4 and 5,
// which are no longer persisted. The compile is byte-identical to a cold
// one, the stale entry is quarantined exactly once, and its kind-6
// replacement serves the next process a program-tier hit.
func TestStaleKindEntryIsSelfHealingMiss(t *testing.T) {
	const seed = 21
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
			t.Error("kind-6 replacement did not serve the restarted driver a program hit")
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

	staleKinds := []uint32{3, 4, 5}
	t.Run("disk", func(t *testing.T) {
		for _, kind := range staleKinds {
			t.Run(fmt.Sprintf("kind-%d", kind), func(t *testing.T) {
				dir := t.TempDir()
				dc, err := diskcache.Open(dir, diskcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				dc.Put(key, kind, stale)
				run(t, Options{CacheDir: dir}, dir)
			})
		}
	})
	t.Run("remote", func(t *testing.T) {
		for _, kind := range staleKinds {
			t.Run(fmt.Sprintf("kind-%d", kind), func(t *testing.T) {
				srv, hs := remoteServer(t)
				srv.Store().Put(key, kind, stale)
				run(t, Options{RemoteURLs: []string{hs.URL}, RemoteTuning: fastRemoteTuning()}, srv.Store().Dir())
			})
		}
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

// TestCodecV2DecodeErrors pins the full text of the decoder's first
// error for each way a checksum-consistent payload can be malformed: the
// text names the byte offset of the failed read, and the decoder reports
// that first failure, not a later consequence of it.
func TestCodecV2DecodeErrors(t *testing.T) {
	fn := func(name string) *ir.Func {
		return &ir.Func{Name: name, Blocks: []*ir.Block{
			{Name: "entry", Instrs: []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg}}},
		}}
	}
	// payload encodes one function per name in funcs, then one zero
	// report per name in reports, in the order given.
	payload := func(funcs, reports []string) []byte {
		w := &bw{}
		w.u8(codecV2Version)
		w.u32(uint32(len(funcs)))
		for _, name := range funcs {
			w.fn(fn(name))
		}
		w.u32(uint32(len(reports)))
		for _, name := range reports {
			w.str(name)
			w.report(&FuncReport{})
		}
		return w.b
	}
	good := payload([]string{"a", "b"}, []string{"a", "b"})
	if _, err := decodeProgramV2(good); err != nil {
		t.Fatalf("the well-formed payload: %v", err)
	}
	// patch returns a copy of good with b written at off.
	patch := func(off int, b ...byte) []byte {
		p := bytes.Clone(good)
		copy(p[off:], b)
		return p
	}
	// Function a's Allocated flag follows the version, the function
	// count, its name, its empty parameter list, its return class and
	// its empty register table.
	const allocatedA = 1 + 4 + (4 + 1) + 4 + 1 + 4
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "pipeline: codec v2 at byte 0: truncated u8"},
		{"revision", patch(0, 2), "pipeline: codec v2 at byte 0: unknown format revision 2"},
		{"truncated", good[:len(good)-1], "pipeline: codec v2 at byte 357: truncated u32"},
		{"truncated bool", good[:112], "pipeline: codec v2 at byte 112: truncated u8"},
		{"truncated block", good[:150], "pipeline: codec v2 at byte 150: truncated u32"},
		{"non-canonical bool", patch(allocatedA, 2), "pipeline: codec v2 at byte 19: non-canonical bool 2"},
		{"hostile count", patch(1, 0xFF, 0xFF, 0xFF, 0xFF), "pipeline: codec v2 at byte 5: count 4294967295 exceeds remaining input"},
		{"hostile string", patch(5, 0xFF, 0xFF, 0xFF, 0x7F), "pipeline: codec v2 at byte 9: string length 2147483647 exceeds 352 remaining bytes"},
		{"trailing bytes", append(bytes.Clone(good), 0, 0), "pipeline: codec v2 at byte 361: 2 trailing bytes"},
		{"report order", payload([]string{"a", "b"}, []string{"b", "a"}),
			`pipeline: codec v2 at byte 283: report names out of canonical order ("a" after "b")`},
		{"no functions", payload(nil, nil), "pipeline: disk program artifact has no functions"},
		{"repeated function", payload([]string{"a", "a"}, []string{"a"}), `pipeline: disk program artifact repeats function "a"`},
	}
	for _, tc := range cases {
		_, err := decodeProgramV2(tc.data)
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
		} else if err.Error() != tc.want {
			t.Errorf("%s: error\n\t%s\nwant\n\t%s", tc.name, err, tc.want)
		}
	}
}
