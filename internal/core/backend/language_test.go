package backend

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core/engine"
	"repro/internal/progs"
	"repro/internal/vm"
)

// Full-pipeline tests of language features the case studies do not
// exercise: IsType, operand attributes, static arrays, runtime action
// ordering, instruction attributes, and cross-command communication.

func runSrc(t *testing.T, toolSrc, appSrc, backendName string) string {
	t.Helper()
	tool, err := engine.Compile(toolSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog := loadSrc(t, appSrc)
	var out bytes.Buffer
	if _, err := Run(tool, prog, backendName, Options{Out: &out}); err != nil {
		t.Fatalf("%s: %v", backendName, err)
	}
	return out.String()
}

const mixedApp = `
.module app
.executable
.entry main
.func main
  mov   r1, 7
  mov   r2, r1
  mov   r5, @buf
  load  r3, [r5]
  store r3, [r5+8]
  add   r4, r3, 1
  halt
.data
buf: .quad 11, 0
`

func TestIsTypeOperands(t *testing.T) {
	// Classify mov operands: `mov r1, 7` has reg+const, `mov r2, r1` has
	// reg+reg; loads have a mem second operand.
	src := `
uint64 movimm = 0;
uint64 movreg = 0;
uint64 memops = 0;
inst I where (I.opcode == Mov) {
  if (I.op2 IsType const) {
    movimm = movimm + 1;
  }
  if (I.op2 IsType reg) {
    movreg = movreg + 1;
  }
}
inst I where (I.op2 IsType mem) {
  memops = memops + 1;
}
exit {
  print(movimm, movreg, memops);
}
`
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		// mov r1,7 and mov r5,@buf are mov-with-immediate; mov r2,r1 is
		// reg; load+store have mem second operands.
		if out != "2 1 2\n" {
			t.Errorf("%s: output = %q, want \"2 1 2\"", b, out)
		}
	}
}

func TestStaticArrays(t *testing.T) {
	// Histogram instruction sizes into a static array at analysis time.
	src := `
int sizes[40];
int maxsize = 0;
inst I {
  sizes[I.size] = sizes[I.size] + 1;
  if (I.size > maxsize) {
    maxsize = I.size;
  }
}
exit {
  print(maxsize, sizes[maxsize]);
}
`
	out := runSrc(t, src, mixedApp, Janus)
	if !strings.Contains(out, " ") || strings.HasPrefix(out, "0") {
		t.Errorf("histogram output = %q", out)
	}
}

func TestActionOrderingAtRuntime(t *testing.T) {
	// Two actions at the same trigger point execute in program order
	// (Section III-B7).
	src := `
inst I where (I.opcode == Load) {
  before I {
    print("first");
  }
  before I {
    print("second");
  }
}
`
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		if out != "first\nsecond\n" {
			t.Errorf("%s: order = %q", b, out)
		}
	}
}

func TestCommandOrderingAtRuntime(t *testing.T) {
	// Actions from different commands on the same instruction also keep
	// program order.
	src := `
inst I where (I.opcode == Load) {
  before I { print("cmd1"); }
}
inst J where (J.opcode == Load) {
  before J { print("cmd2"); }
}
`
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		if out != "cmd1\ncmd2\n" {
			t.Errorf("%s: order = %q", b, out)
		}
	}
}

func TestInstructionAttributes(t *testing.T) {
	src := `
inst I where (I.opcode == Load) {
  before I {
    print(I.addr, I.size, I.nextaddr, I.numops);
  }
}
`
	prog := loadSrc(t, mixedApp)
	var load = func() (addr, size, next uint64) {
		for _, f := range prog.Modules[0].Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					if in.Op.String() == "load" {
						return in.Addr, uint64(in.Size), in.Next()
					}
				}
			}
		}
		return 0, 0, 0
	}
	a, s, n := load()
	out := runSrc(t, src, mixedApp, Pin)
	fields := strings.Fields(strings.TrimSpace(out))
	if len(fields) != 4 {
		t.Fatalf("output = %q", out)
	}
	wants := []uint64{a, s, n, 2}
	for i, w := range wants {
		if fields[i] != trimUint(w) {
			t.Errorf("attr %d = %s, want %d", i, fields[i], w)
		}
	}
}

func trimUint(v uint64) string {
	var buf [20]byte
	i := len(buf)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestMemAddrDistinguishesLoadStore(t *testing.T) {
	// srcaddr on loads and dstaddr on stores both resolve to the mem
	// operand's effective address.
	src := `
inst I where (I.opcode == Load) {
  before I { print("load", I.srcaddr); }
}
inst I where (I.opcode == Store) {
  before I { print("store", I.dstaddr); }
}
`
	prog := loadSrc(t, mixedApp)
	buf, ok := prog.Modules[0].Loaded.SymAddr("buf")
	if !ok {
		t.Fatal("buf missing")
	}
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		want := "load " + trimUint(buf) + "\nstore " + trimUint(buf+8) + "\n"
		if out != want {
			t.Errorf("%s: output = %q, want %q", b, out, want)
		}
	}
}

func TestGlobalsCommunicateAcrossCommands(t *testing.T) {
	// One command's action writes a global that another command's action
	// reads at run time.
	src := `
uint64 loads = 0;
inst I where (I.opcode == Load) {
  before I { loads = loads + 1; }
}
inst I where (I.opcode == Store) {
  before I { print("loads-before-store", loads); }
}
`
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		if out != "loads-before-store 1\n" {
			t.Errorf("%s: output = %q", b, out)
		}
	}
}

func TestAnalysisStageIO(t *testing.T) {
	// Analysis writes to a file; the exit block reads it back — the
	// producer/consumer pattern of Section III-B7 across stages.
	src := `
file f("funcs.txt");
func F {
  writeToFile(f, F.name);
}
exit {
  line l = f.getline();
  for (; l != NULL; ) {
    print(l);
    l = f.getline();
  }
}
`
	out := runSrc(t, src, mixedApp, Dyninst)
	if strings.TrimSpace(out) != "main" {
		t.Errorf("output = %q, want main", out)
	}
}

func TestDictKeysFollowDeclaredType(t *testing.T) {
	// A line key on a dict<int,int> converts to the number it spells, so
	// d[l] and d[5] are one entry on every backend, VM tier and action
	// execution path.
	src := `
file f("keys.txt");
dict<int,int> d;
module M where (M.isexecutable) {
  writeToFile(f, 5);
}
init {
  line l = f.getline();
  d[l] = 7;
  print(d[5]);
  print(d.size());
  d[5] = 9;
  print(d.size());
}
`
	tool, err := engine.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := loadSrc(t, mixedApp)
	for _, b := range Backends() {
		for _, mode := range []vm.ExecMode{vm.ExecTranslated, vm.ExecInterpreted} {
			for _, interpret := range []bool{false, true} {
				var out bytes.Buffer
				if _, err := Run(tool, prog, b, Options{Out: &out, VMMode: mode, Interpret: interpret}); err != nil {
					t.Fatalf("%s: %v", b, err)
				}
				if got := strings.Fields(out.String()); strings.Join(got, " ") != "7 1 1" {
					t.Errorf("%s mode %v interpret %v: output = %q, want 7 1 1", b, mode, interpret, out.String())
				}
			}
		}
	}
}

func TestInitBlockRunsBeforeActions(t *testing.T) {
	src := `
uint64 armed = 0;
init { armed = 1; }
inst I where (I.opcode == Load) {
  before I {
    if (armed == 1) { print("armed"); }
  }
}
`
	for _, b := range Backends() {
		out := runSrc(t, src, mixedApp, b)
		if strings.TrimSpace(out) != "armed" {
			t.Errorf("%s: output = %q", b, out)
		}
	}
}

func TestCharAndStringOps(t *testing.T) {
	src := `
string name = "";
func F {
  name = F.name;
}
exit {
  if (name == "main") { print("found-main"); }
  char c = 'x';
  print(c + 1);
}
`
	out := runSrc(t, src, mixedApp, Janus)
	if out != "found-main\n121\n" {
		t.Errorf("output = %q", out)
	}
}

func TestFuncAndBlockAttributes(t *testing.T) {
	src := `
func F {
  print(F.name, F.nblocks, F.nloops, F.ninsts);
}
basicblock B where (B.id == 0) {
  print("b0", B.startaddr, B.endaddr, B.ninsts);
}
`
	out := runSrc(t, src, mixedApp, Pin)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("output = %q", out)
	}
	if !strings.HasPrefix(lines[0], "main 1 0 7") {
		t.Errorf("func attrs = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "b0 ") {
		t.Errorf("block attrs = %q", lines[1])
	}
}

func TestOpcodeMixTool(t *testing.T) {
	// The extra opcode-histogram case study classifies every executed
	// mem/call-ret/branch/arith instruction; the class counts must match
	// ground truth computed from a raw run.
	prog := loadSrc(t, mixedApp)
	tool := compile(t, progs.OpcodeMix)
	for _, b := range Backends() {
		var out bytes.Buffer
		if _, err := Run(tool, prog, b, Options{Out: &out}); err != nil {
			t.Fatal(err)
		}
		want := "mem 2\ncallret 0\nbranch 0\narith 1\nclassified 3\n"
		if out.String() != want {
			t.Errorf("%s: output = %q, want %q", b, out.String(), want)
		}
	}
}

func TestPinLoopDetectionExtension(t *testing.T) {
	// The paper's Section VI-E: "integrating loop detection techniques
	// in Pin could make it transparent to the programmer." With the
	// extension off, loop commands are rejected; with it on, the loop
	// coverage tool runs on Pin and reports the same coverage as the
	// loop-aware backends.
	tool := compile(t, progs.LoopCoverage)
	prog := loadVictim(t, "loopy")
	if _, err := Run(tool, prog, Pin, Options{}); err == nil {
		t.Fatal("loop command accepted without loop detection")
	}
	var pinOut, janusOut bytes.Buffer
	if _, err := Run(tool, prog, Pin, Options{Out: &pinOut, PinLoopDetection: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tool, prog, Janus, Options{Out: &janusOut}); err != nil {
		t.Fatal(err)
	}
	if pinOut.String() != janusOut.String() || pinOut.Len() == 0 {
		t.Errorf("pin loop coverage = %q, janus = %q", pinOut.String(), janusOut.String())
	}
}

func TestLoopIterTrigger(t *testing.T) {
	// iter fires once per back-edge traversal: a 5-iteration loop takes
	// its back edge 4 times.
	src := `
uint64 iters = 0;
loop L {
  iter L { iters = iters + 1; }
}
exit { print(iters); }
`
	app := `
.module app
.executable
.entry main
.func main
  mov r8, 0
  mov r9, 5
head:
  add r8, r8, 1
  blt r8, r9, head
  halt
`
	for _, b := range []string{Dyninst, Janus} {
		out := runSrc(t, src, app, b)
		if strings.TrimSpace(out) != "4" {
			t.Errorf("%s: iters = %q, want 4", b, out)
		}
	}
}

func TestNestedLoopDepthAttribute(t *testing.T) {
	src := `
loop L where (L.depth == 2) {
  print("inner", L.nblocks);
}
loop L where (L.depth == 1) {
  print("outer", L.nblocks);
}
`
	app := `
.module app
.executable
.entry main
.func main
  mov r8, 0
outer:
  mov r9, 0
inner:
  add r9, r9, 1
  mov r7, 3
  blt r9, r7, inner
  add r8, r8, 1
  mov r7, 3
  blt r8, r7, outer
  halt
`
	out := runSrc(t, src, app, Janus)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "inner") || !strings.HasPrefix(lines[1], "outer") {
		t.Errorf("output = %q", out)
	}
}

func TestAfterOnBranchSurfacesPlacementError(t *testing.T) {
	// The type system allows `after I` in general, but frameworks cannot
	// instrument after a branch; the placement error must surface
	// cleanly rather than being dropped.
	src := `
inst I where (I.opcode == Branch) {
  after I { print(1); }
}
`
	tool, err := engine.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	app := `
.module app
.executable
.entry main
.func main
  mov r8, 0
head:
  add r8, r8, 1
  mov r7, 2
  blt r8, r7, head
  halt
`
	for _, b := range Backends() {
		prog := loadSrc(t, app)
		if _, err := Run(tool, prog, b, Options{}); err == nil {
			t.Errorf("%s: after-on-branch placement accepted", b)
		}
	}
}

func TestModuleCommandOnAllBackends(t *testing.T) {
	src := `
uint64 mods = 0;
module M {
  mods = mods + 1;
  print(M.name);
}
exit { print(mods); }
`
	app := `
.module solo
.executable
.entry main
.func main
  halt
`
	for _, b := range Backends() {
		out := runSrc(t, src, app, b)
		if out != "solo\n1\n" {
			t.Errorf("%s: output = %q", b, out)
		}
	}
}
