package pipeline

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ccmem/internal/ir"
)

// keyProgram is a two-function program that sets every field the content
// encoding covers to a value a one-field mutation can move. It is never
// compiled, only hashed, so it need not be valid ILOC.
func keyProgram() *ir.Program {
	fn := func(name, callee string) *ir.Func {
		return &ir.Func{
			Name:     name,
			Params:   []ir.Reg{0, 1},
			RetClass: ir.ClassInt,
			Regs: []ir.RegInfo{
				{Class: ir.ClassInt, Name: "a"},
				{Class: ir.ClassInt, Name: "b"},
				{Class: ir.ClassFloat, Name: "x"},
			},
			NumInt:     8,
			NumFloat:   8,
			FrameBytes: 16,
			CCMBytes:   8,
			Blocks: []*ir.Block{
				{Name: "entry", Instrs: []ir.Instr{
					{Op: ir.OpLoadI, Dst: 0, Imm: 7},
					{Op: ir.OpLoadF, Dst: 2, FImm: 0},
					{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{0, 1}, Sym: callee},
					{Op: ir.OpCBr, Dst: ir.NoReg, Args: []ir.Reg{1}, Then: "ab", Else: "c"},
				}},
				{Name: "ab", Instrs: []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{0}}}},
				{Name: "c", Instrs: []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{1}}}},
			},
		}
	}
	return &ir.Program{
		Globals: []*ir.Global{{Name: "tab", Words: 4, Init: []uint64{1, 2}}},
		Funcs:   []*ir.Func{fn("main", "g"), fn("g", "main")},
	}
}

// contentKeys labels every key computed over p under cfg: the program
// digest, the program key, and each function's front and back keys by
// function name. The back key is taken over the same body as the front
// key; here it stands in for the post-barrier function.
func contentKeys(p *ir.Program, cfg Config) map[string]digest {
	fds := make([]digest, len(p.Funcs))
	pd := programDigest(p, fds)
	keys := map[string]digest{"digest": pd, "program": programKey(pd, cfg)}
	for i, f := range p.Funcs {
		keys["front/"+f.Name] = frontKey(fds[i], cfg)
		keys["back/"+f.Name] = backKey(f, cfg)
	}
	return keys
}

// changedKeys returns the sorted labels whose key differs between a and
// b, a label present in only one of them included.
func changedKeys(a, b map[string]digest) []string {
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestKeysSeparateContent: moving any one field the content encoding
// covers changes the program digest and every key whose stage reads that
// field, and no other key; each Config field changes exactly the keys
// that hash it. Both tables are checked for completeness against the
// struct definitions, so a new IR or Config field cannot escape the keys
// unnoticed.
func TestKeysSeparateContent(t *testing.T) {
	cfg := Config{Strategy: PostPass, CCMBytes: 512}.withDefaults()
	mainKeys := []string{"back/main", "digest", "front/main", "program"}
	whole := []string{"digest", "program"}
	main := func(p *ir.Program) *ir.Func { return p.Funcs[0] }
	entry := func(p *ir.Program, i int) *ir.Instr { return &p.Funcs[0].Blocks[0].Instrs[i] }

	content := []struct {
		field  string // struct field the mutation moves
		mutate func(p *ir.Program)
		want   []string
	}{
		{"Func.Name", func(p *ir.Program) { main(p).Name = "mainX" },
			[]string{"back/main", "back/mainX", "digest", "front/main", "front/mainX", "program"}},
		{"Func.Params", func(p *ir.Program) { main(p).Params[1] = 2 }, mainKeys},
		{"Func.RetClass", func(p *ir.Program) { main(p).RetClass = ir.ClassFloat }, mainKeys},
		{"RegInfo.Class", func(p *ir.Program) { main(p).Regs[1].Class = ir.ClassFloat }, mainKeys},
		{"RegInfo.Name", func(p *ir.Program) { main(p).Regs[1].Name = "bb" }, mainKeys},
		{"Func.Regs", func(p *ir.Program) { main(p).NewReg(ir.ClassInt, "") }, mainKeys},
		{"Func.Allocated", func(p *ir.Program) { main(p).Allocated = true }, mainKeys},
		{"Func.NumInt", func(p *ir.Program) { main(p).NumInt++ }, mainKeys},
		{"Func.NumFloat", func(p *ir.Program) { main(p).NumFloat++ }, mainKeys},
		{"Func.FrameBytes", func(p *ir.Program) { main(p).FrameBytes += 8 }, mainKeys},
		{"Func.CCMBytes", func(p *ir.Program) { main(p).CCMBytes += 8 }, mainKeys},
		{"Block.Name", func(p *ir.Program) { main(p).Blocks[2].Name = "d" }, mainKeys},
		{"Func.Blocks", func(p *ir.Program) { f := main(p); f.Blocks = f.Blocks[:2] }, mainKeys},
		{"Block.Instrs", func(p *ir.Program) { b := main(p).Blocks[0]; b.Instrs = b.Instrs[1:] }, mainKeys},
		{"Instr.Op", func(p *ir.Program) { entry(p, 0).Op = ir.OpNop }, mainKeys},
		{"Instr.Dst", func(p *ir.Program) { entry(p, 0).Dst = 1 }, mainKeys},
		{"Instr.Args", func(p *ir.Program) { entry(p, 2).Args[1] = 0 }, mainKeys},
		{"Instr.Args/len", func(p *ir.Program) { in := entry(p, 2); in.Args = in.Args[:1] }, mainKeys},
		{"Instr.Imm", func(p *ir.Program) { entry(p, 0).Imm++ }, mainKeys},
		{"Instr.FImm", func(p *ir.Program) { entry(p, 1).FImm = math.Copysign(0, -1) }, mainKeys},
		{"Instr.Sym", func(p *ir.Program) { entry(p, 2).Sym = "h" }, mainKeys},
		{"Instr.Then", func(p *ir.Program) { entry(p, 3).Then = "c" }, mainKeys},
		{"Instr.Else", func(p *ir.Program) { entry(p, 3).Else = "ab" }, mainKeys},
		{"Instr.Then/Else boundary", func(p *ir.Program) { in := entry(p, 3); in.Then, in.Else = "a", "bc" }, mainKeys},
		{"Global.Name", func(p *ir.Program) { p.Globals[0].Name = "tab2" }, whole},
		{"Global.Words", func(p *ir.Program) { p.Globals[0].Words++ }, whole},
		{"Global.Init", func(p *ir.Program) { p.Globals[0].Init[1]++ }, whole},
		{"Program.Globals", func(p *ir.Program) { p.Globals = append(p.Globals, &ir.Global{Name: "z", Words: 1}) }, whole},
		{"Program.Funcs", func(p *ir.Program) { p.Funcs[0], p.Funcs[1] = p.Funcs[1], p.Funcs[0] }, whole},
	}
	base := contentKeys(keyProgram(), cfg)
	covered := map[string]bool{}
	for _, tc := range content {
		p := keyProgram()
		tc.mutate(p)
		if got := changedKeys(base, contentKeys(p, cfg)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: changed keys %v, want %v", tc.field, got, tc.want)
		}
		covered[strings.SplitN(tc.field, "/", 2)[0]] = true
	}
	// Every exported field of the encoded IR types has a row; Block.Index
	// is derived (Func.Renumber maintains it), so it is not content.
	for _, typ := range []any{ir.Program{}, ir.Global{}, ir.Func{}, ir.RegInfo{}, ir.Block{}, ir.Instr{}} {
		rt := reflect.TypeOf(typ)
		for i := 0; i < rt.NumField(); i++ {
			name := rt.Name() + "." + rt.Field(i).Name
			if rt.Field(i).IsExported() && name != "Block.Index" && !covered[name] {
				t.Errorf("no key-separation row for %s", name)
			}
		}
	}

	integrated := Config{Strategy: Integrated, CCMBytes: 512}.withDefaults()
	front := []string{"front/g", "front/main", "program"}
	back := []string{"back/g", "back/main", "program"}
	program := []string{"program"}
	configs := []struct {
		field    string
		from, to Config
		want     []string
	}{
		// The front key sees Strategy only through the integrated CCM
		// size, and CCMBytes only under Integrated.
		{"Strategy", cfg, with(cfg, func(c *Config) { c.Strategy = PostPassInterproc }), program},
		{"Strategy/integrated", cfg, with(cfg, func(c *Config) { c.Strategy = Integrated }), front},
		{"CCMBytes", cfg, with(cfg, func(c *Config) { c.CCMBytes = 1024 }), program},
		{"CCMBytes/integrated", integrated, with(integrated, func(c *Config) { c.CCMBytes = 1024 }), front},
		{"IntRegs", cfg, with(cfg, func(c *Config) { c.IntRegs = 16 }), front},
		{"FloatRegs", cfg, with(cfg, func(c *Config) { c.FloatRegs = 16 }), front},
		{"DisableOptimizer", cfg, with(cfg, func(c *Config) { c.DisableOptimizer = true }), front},
		{"DisableCompaction", cfg, with(cfg, func(c *Config) { c.DisableCompaction = true }), back},
		{"VerifyPasses", cfg, with(cfg, func(c *Config) { c.VerifyPasses = true }),
			[]string{"back/g", "back/main", "front/g", "front/main", "program"}},
		{"DiffCheck", cfg, with(cfg, func(c *Config) { c.DiffCheck = DiffFinal }), program},
		{"DiffVectors", cfg, with(cfg, func(c *Config) { c.DiffVectors = 5 }), program},
		// Fields that shape how a compile fails or is reported, never what
		// a clean compile emits, address nothing.
		{"Strict", cfg, with(cfg, func(c *Config) { c.Strict = true }), nil},
		{"ReproDir", cfg, with(cfg, func(c *Config) { c.ReproDir = "repro" }), nil},
	}
	p := keyProgram()
	covered = map[string]bool{}
	for _, tc := range configs {
		if got := changedKeys(contentKeys(p, tc.from), contentKeys(p, tc.to)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Config.%s: changed keys %v, want %v", tc.field, got, tc.want)
		}
		covered[strings.SplitN(tc.field, "/", 2)[0]] = true
	}
	// passHook is a test seam, not content-addressed.
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if name != "passHook" && !covered[name] {
			t.Errorf("no key-separation row for Config.%s", name)
		}
	}
}

// with returns a copy of c with edit applied.
func with(c Config, edit func(*Config)) Config {
	edit(&c)
	return c
}
