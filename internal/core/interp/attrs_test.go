package interp

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/value"
	"repro/internal/obj"
	"repro/internal/vm"
)

func buildRefs(t *testing.T) (*cfg.Program, map[ast.EType]*value.CFERef) {
	t.Helper()
	src := `
.module refapp
.executable
.entry main
.extern print
.func main
  mov r8, 0
head:
  add r8, r8, 1
  mov r7, 3
  blt r8, r7, head
  call print
  halt
`
	m, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := obj.Load([]*obj.Module{m}, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	mod := prog.Modules[0]
	f := mod.Funcs[0]
	refs := map[ast.EType]*value.CFERef{
		ast.Module:     {Kind: ast.Module, Module: mod, Prog: prog},
		ast.Func:       {Kind: ast.Func, Func: f, Prog: prog},
		ast.Loop:       {Kind: ast.Loop, Loop: f.Loops[0], Func: f, Prog: prog},
		ast.BasicBlock: {Kind: ast.BasicBlock, Block: f.Blocks[0], Func: f, Prog: prog},
		ast.Inst:       {Kind: ast.Inst, Inst: f.Blocks[0].Insts[0], Block: f.Blocks[0], Func: f, Prog: prog},
	}
	return prog, refs
}

func TestStaticAttrAllCFEs(t *testing.T) {
	prog, refs := buildRefs(t)
	f := prog.Modules[0].Funcs[0]

	cases := []struct {
		et   ast.EType
		attr string
		want int64
	}{
		{ast.Module, "id", 0},
		{ast.Module, "nfuncs", 1},
		{ast.Func, "id", int64(f.ID)},
		{ast.Func, "startaddr", int64(f.Entry)},
		{ast.Func, "endaddr", int64(f.End)},
		{ast.Func, "nblocks", int64(len(f.Blocks))},
		{ast.Func, "nloops", 1},
		{ast.Func, "ninsts", int64(f.NumInsts())},
		{ast.Loop, "id", int64(f.Loops[0].ID)},
		{ast.Loop, "depth", 1},
		{ast.Loop, "nblocks", int64(len(f.Loops[0].Blocks))},
		{ast.Loop, "startaddr", int64(f.Loops[0].Header.Start)},
		{ast.BasicBlock, "id", int64(f.Blocks[0].ID)},
		{ast.BasicBlock, "startaddr", int64(f.Blocks[0].Start)},
		{ast.BasicBlock, "endaddr", int64(f.Blocks[0].End)},
		{ast.BasicBlock, "ninsts", int64(len(f.Blocks[0].Insts))},
	}
	for _, c := range cases {
		v, err := StaticAttr(refs[c.et], c.attr)
		if err != nil {
			t.Errorf("%s.%s: %v", c.et, c.attr, err)
			continue
		}
		if v.AsInt() != c.want {
			t.Errorf("%s.%s = %d, want %d", c.et, c.attr, v.AsInt(), c.want)
		}
	}
	// String-valued attributes.
	if v, _ := StaticAttr(refs[ast.Func], "name"); v.Str() != "main" {
		t.Errorf("func name = %q", v.Str())
	}
	if v, _ := StaticAttr(refs[ast.Module], "name"); v.Str() != "refapp" {
		t.Errorf("module name = %q", v.Str())
	}
	if v, _ := StaticAttr(refs[ast.Module], "isexecutable"); !v.AsBool() {
		t.Error("module not executable")
	}
	// trgname resolves call targets through the symbol table.
	var call *value.CFERef
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op.String() == "call" {
				call = &value.CFERef{Kind: ast.Inst, Inst: in, Prog: prog}
			}
		}
	}
	if v, err := StaticAttr(call, "trgname"); err != nil || v.Str() != "print" {
		t.Errorf("trgname = %q, %v", v.Str(), err)
	}
	// Unknown attributes fail for every CFE kind.
	for et, ref := range refs {
		if _, err := StaticAttr(ref, "zorp"); err == nil {
			t.Errorf("%s.zorp resolved", et)
		}
	}
	// CFE refs render readably (used in diagnostics).
	for _, ref := range refs {
		if value.CFEVal(ref).String() == "" {
			t.Error("empty CFE rendering")
		}
	}
}

func TestFSNamesAndSharing(t *testing.T) {
	fs := NewFS()
	f1 := fs.Open("b.txt")
	f2 := fs.Open("a.txt")
	f3 := fs.Open("b.txt")
	if f1 != f3 {
		t.Error("same name returned different handles")
	}
	f1.WriteLine("x")
	if got := f3.GetLine(); got.Str() != "x" {
		t.Errorf("shared handle read = %v", got)
	}
	names := fs.Names()
	if len(names) != 2 || names[0] != "a.txt" || names[1] != "b.txt" {
		t.Errorf("names = %v", names)
	}
	_ = f2
}

func TestVectorIndexAssignment(t *testing.T) {
	out := runProgram(t, `
vector<int> v;
init {
  v.add(1);
  v.add(2);
  v[0] = 10;
  print(v[0], v[1]);
}
`)
	if out != "10 2\n" {
		t.Errorf("out = %q", out)
	}
	if _, err := tryRunProgram(`vector<int> v; init { v[0] = 1; }`); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("vector OOB write err = %v", err)
	}
	if _, err := tryRunProgram(`vector<int> v; init { print(v[3]); }`); err != nil {
		t.Errorf("vector OOB read should yield NULL, got %v", err)
	}
}

func TestNullPrintsAndShortCircuit(t *testing.T) {
	out := runProgram(t, `
int zero = 0;
init {
  line l;
  print(l == NULL);
  // Short-circuit must protect the division.
  if (zero != 0 && 1 / zero > 0) {
    print("bad");
  }
  if (zero == 0 || 1 / zero > 0) {
    print("guarded");
  }
}
`)
	if out != "true\nguarded\n" {
		t.Errorf("out = %q", out)
	}
}
