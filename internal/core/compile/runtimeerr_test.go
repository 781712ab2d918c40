package compile_test

// The runtime-error equivalence table: every runtime error a compiled
// action body can raise must surface exactly as the tree-walking
// interpreter raises it — same message, same position, same output
// before it, same recorded error — whether the failing node sits in a
// scalar body (every node unboxed) or in a boxed one.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core/ast"
	"repro/internal/core/backend"
	"repro/internal/core/compile"
	"repro/internal/core/engine"
	"repro/internal/core/interp"
	"repro/internal/core/value"
)

// errToolSrc wraps one `before` action on every load of the loads
// target. z is a string-keyed dict whose reads never take a scalar
// path, so `z["k"]` pulls the expression around it onto the boxed one.
func errToolSrc(body string) string {
	return `
uint64 n = 0;
int a[4];
vector<int> v;
dict<string,int> z;
dict<int,int> d;
inst I where (I.opcode == Load) {
  before I {
    ` + body + `
  }
}
exit { print(n); }
`
}

type errCase struct {
	name             string
	scalar, boxed    string // action bodies raising the error
	wantErr, wantOut string // substrings of the error and output
}

var errCases = []errCase{
	{
		name:    "division by zero",
		scalar:  `n = n / (I.memaddr - I.memaddr);`,
		boxed:   `print("fire"); n = n / z["k"];`,
		wantErr: "division by zero",
	},
	{
		name:    "modulo by zero",
		scalar:  `n = n % (I.memaddr - I.memaddr);`,
		boxed:   `print("fire"); n = n % z["k"];`,
		wantErr: "division by zero",
	},
	{
		name:    "array load out of range",
		scalar:  `n = a[I.memaddr];`,
		boxed:   `n = a[z["k"] + 4];`,
		wantErr: "array index",
	},
	{
		name:    "array store out of range",
		scalar:  `a[I.memaddr] = 1;`,
		boxed:   `a[z["k"] - 1] = 1;`,
		wantErr: "array index",
	},
	// The fused read-modify-writes `t = t ± e`: the read's error, then
	// e's, then the store's, as the unfused statement raises them.
	{
		name:    "array read-modify-write out of range",
		scalar:  `int k = I.memaddr; a[k] = a[k] + n / (I.memaddr - I.memaddr);`,
		boxed:   `a[z["k"] + 4] = a[z["k"] + 4] + n / z["k"];`,
		wantErr: "array index",
	},
	{
		name:    "vector read-modify-write stores out of range",
		scalar:  `int k = I.memaddr; v[k] = v[k] + 1;`,
		boxed:   `v[z["k"] + 7] = v[z["k"] + 7] + 1;`,
		wantErr: "vector index",
	},
	{
		name:    "vector read-modify-write divides before the store",
		scalar:  `int k = I.memaddr; v[k] = v[k] - 1 / (I.memaddr - I.memaddr);`,
		boxed:   `v[z["k"] + 7] = v[z["k"] + 7] - 1 / z["k"];`,
		wantErr: "division by zero",
	},
	{
		name:    "dict read-modify-write operand divides by zero",
		scalar:  `int k = I.memaddr; d[k] = d[k] + n / (I.memaddr - I.memaddr);`,
		boxed:   `d[7] = d[7] + n / z["k"];`,
		wantErr: "division by zero",
	},
	{
		name:    "slot read-modify-write operand divides by zero",
		scalar:  `n = n - n % (I.memaddr - I.memaddr);`,
		boxed:   `n = n - n % z["k"];`,
		wantErr: "division by zero",
	},
	{
		name:    "vector read out of range prints NULL",
		scalar:  `print(v[I.memaddr]);`,
		boxed:   `print(v[z["k"] + 7]);`,
		wantOut: "NULL\n",
	},
	// The counted loop: init, limit, body and fused element read fail
	// where and when the generic loop's statements would.
	{
		name:    "counted loop init divides by zero",
		scalar:  `for (int i = n / (I.memaddr - I.memaddr); i < 4; i = i + 1) { n = n + i; }`,
		boxed:   `for (int i = n / z["k"]; i < 4; i = i + 1) { n = n + i; }`,
		wantErr: "division by zero",
	},
	{
		name:    "counted loop limit divides by zero",
		scalar:  `for (int i = 0; i < n / (I.memaddr - I.memaddr); i = i + 1) { n = n + i; }`,
		boxed:   `for (int i = 0; i < n / z["k"]; i = i + 1) { n = n + i; }`,
		wantErr: "division by zero",
	},
	{
		name:    "counted loop body fails on a later iteration",
		scalar:  `for (int i = 0; i < 4; i = i + 1) { print(i); n = n / (2 - i); }`,
		boxed:   `for (int i = 0; i < 4; i = i + 1) { print(i); n = n / (z["k"] + 2 - i); }`,
		wantErr: "division by zero",
		wantOut: "0\n1\n2\n",
	},
	{
		name:    "counted loop element read past the array",
		scalar:  `for (int i = 0; i < 6; i = i + 1) { int x = a[i]; print(x); }`,
		boxed:   `for (int i = 0; i < 6; i = i + 1) { int x = a[i]; print(x); n = n + z["k"]; }`,
		wantErr: "array index 4 out of range [0,4)",
		wantOut: "0\n0\n0\n0\n",
	},
}

// checkShape compiles src and fails unless its single action body
// lowers as wanted.
func checkShape(t *testing.T, src string, scalar bool) *engine.CompiledTool {
	t.Helper()
	tool, err := engine.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := compile.Lowering(tool.Code)
	if len(lines) != 1 {
		t.Fatalf("want one action, got %q", lines)
	}
	if isBoxed := strings.Contains(lines[0], " boxed "); isBoxed == scalar {
		t.Fatalf("body lowered as %q, want scalar=%v", lines[0], scalar)
	}
	return tool
}

func TestRuntimeErrorTable(t *testing.T) {
	for _, tc := range errCases {
		for _, shape := range []struct {
			name   string
			body   string
			scalar bool
		}{{"scalar", tc.scalar, true}, {"boxed", tc.boxed, false}} {
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				tool := checkShape(t, errToolSrc(shape.body), shape.scalar)
				run := func(interpret bool) (string, error) {
					var out bytes.Buffer
					_, err := backend.Run(tool, buildTargetTB(t, "src:loads"), backend.Pin, backend.Options{
						Out:       &out,
						Interpret: interpret,
					})
					return out.String(), err
				}
				iOut, iErr := run(true)
				cOut, cErr := run(false)
				if iOut != cOut {
					t.Errorf("output diverged:\ninterp:   %q\ncompiled: %q", iOut, cOut)
				}
				if !strings.Contains(cOut, tc.wantOut) {
					t.Errorf("output %q lacks %q", cOut, tc.wantOut)
				}
				if tc.wantErr == "" {
					if iErr != nil || cErr != nil {
						t.Fatalf("unexpected errors: interp=%v compiled=%v", iErr, cErr)
					}
					return
				}
				if iErr == nil || cErr == nil {
					t.Fatalf("both modes must fail: interp=%v compiled=%v", iErr, cErr)
				}
				if iErr.Error() != cErr.Error() {
					t.Errorf("error diverged:\ninterp:   %v\ncompiled: %v", iErr, cErr)
				}
				if !strings.Contains(cErr.Error(), tc.wantErr) {
					t.Errorf("error %v lacks %q", cErr, tc.wantErr)
				}
			})
		}
	}
}

// TestRuntimeErrorOutsideProbe fires a placed action with no
// materialized dynamic attributes, as happens when an action runs
// outside a probe: both execution paths record the same error.
func TestRuntimeErrorOutsideProbe(t *testing.T) {
	for _, shape := range []struct {
		name   string
		body   string
		scalar bool
	}{
		{"scalar", `n = I.memaddr;`, true},
		{"boxed", `n = I.memaddr + z["k"];`, false},
	} {
		t.Run(shape.name, func(t *testing.T) {
			tool := checkShape(t, errToolSrc(shape.body), shape.scalar)
			fire := func(interpret bool) error {
				pl := &capturePlacer{prog: buildTargetTB(t, "src:loads")}
				inst, err := engine.Instrument(tool, pl.prog, pl, engine.Options{Out: io.Discard, Interpret: interpret})
				if err != nil {
					t.Fatal(err)
				}
				if len(pl.actions) == 0 {
					t.Fatal("no actions placed")
				}
				pl.actions[0].Exec(nil)
				return inst.Err()
			}
			iErr, cErr := fire(true), fire(false)
			if iErr == nil || cErr == nil {
				t.Fatalf("both modes must fail: interp=%v compiled=%v", iErr, cErr)
			}
			if iErr.Error() != cErr.Error() {
				t.Errorf("error diverged:\ninterp:   %v\ncompiled: %v", iErr, cErr)
			}
			if !strings.Contains(cErr.Error(), "not materialized") {
				t.Errorf("unexpected error %v", cErr)
			}
		})
	}
}

// TestRuntimeErrorNotIndexable indexes a container global whose cell
// holds NULL. Checked source cannot reach that state, so the body is
// bound directly and the interpreter runs it over the same state.
func TestRuntimeErrorNotIndexable(t *testing.T) {
	for _, shape := range []struct {
		name   string
		body   string
		scalar bool
		null   string // the global whose cell holds NULL; "" for d
		want   string // the error; "" for not indexable
	}{
		{"scalar", `n = d[I.memaddr];`, true, "", ""},
		{"read-modify-write", `int k = I.memaddr; d[k] = d[k] + 1;`, true, "", ""},
		{"read-modify-write literal key", `d[3] = d[3] - n / (I.memaddr - I.memaddr);`, true, "", ""},
		{"boxed", `n = d[z["k"]];`, false, "", ""},
		{"counted loop element read", `for (int i = 0; i < 2; i = i + 1) { int x = v[i]; n = n + x; }`, true, "v", ""},
		{"counted loop size limit", `for (int i = 0; i < v.size(); i = i + 1) { n = n + i; }`, true, "v", `invalid method "size"`},
	} {
		t.Run(shape.name, func(t *testing.T) {
			tool := checkShape(t, errToolSrc(shape.body), shape.scalar)
			var act *ast.Action
			var body *compile.Body
			for a, b := range tool.Code.Actions {
				act, body = a, b
			}
			// Globals as the engine declares them, except d, which is NULL.
			globals := make(map[string]*value.Value)
			env := interp.NewEnv(nil)
			for _, item := range tool.Prog.Items {
				if decl, ok := item.(*ast.VarDecl); ok {
					v := interp.ZeroValue(tool.Info.DeclTypes[decl])
					if decl.Name == shape.null || shape.null == "" && decl.Name == "d" {
						v = value.Null
					}
					env.Define(decl.Name, v)
					globals[decl.Name] = env.Lookup(decl.Name)
				}
			}
			dyn := []value.Value{value.IntVal(8)}
			bd, err := body.Bind(func(ref compile.CellRef) (*value.Value, error) {
				return globals[ref.Name], nil
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cErr := bd.Exec(dyn)
			runEnv := interp.NewEnv(env)
			runEnv.SetDyn(map[string]value.Value{"I.memaddr": dyn[0]})
			iErr := interp.New(tool.Info, io.Discard, nil).ExecStmts(runEnv, act.Body)
			if iErr == nil || cErr == nil {
				t.Fatalf("both paths must fail: interp=%v compiled=%v", iErr, cErr)
			}
			if iErr.Error() != cErr.Error() {
				t.Errorf("error diverged:\ninterp:   %v\ncompiled: %v", iErr, cErr)
			}
			want := shape.want
			if want == "" {
				want = "not indexable"
			}
			if !strings.Contains(cErr.Error(), want) {
				t.Errorf("unexpected error %v", cErr)
			}
		})
	}
}

// TestForIterationBound runs a for statement into interp.MaxLoopIters on
// both loop productions: the counted one, including a loop whose body
// assigns its variable, and the generic one for a `<=` loop, a shape the
// counted production rejects. The interpreter raises the same text
// at the for's position; it takes too long to run here. As there, the
// bound is checked before the condition, so a loop of exactly
// MaxLoopIters iterations fails and one of one fewer does not.
func TestForIterationBound(t *testing.T) {
	if interp.MaxLoopIters != 50_000_000 {
		t.Fatalf("MaxLoopIters = %d; update the loops and the expected text", interp.MaxLoopIters)
	}
	for _, tc := range []struct {
		name    string
		loop    string
		counted bool
		fails   bool
	}{
		{"counted", `for (int i = 0; i < 50000000; i = i + 1) { n = n + 1; }`, true, true},
		{"counted one short", `for (int i = 1; i < 50000000; i = i + 1) { n = n + 1; }`, true, false},
		{"counted assigning i", `for (int i = 0; i < 1; i = i + 1) { i = i - 1; }`, true, true},
		{"generic", `for (int i = 0; i <= 0; i = i + 0) { n = n + 1; }`, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tool, err := engine.Compile("exit {\n  int n = 0;\n  " + tc.loop + "\n}\n")
			if err != nil {
				t.Fatal(err)
			}
			exit := tool.Prog.Items[0].(*ast.ExitBlock)
			if got := compile.CountedFor(tool.Info, exit.Body[1].(*ast.ForStmt)); got != tc.counted {
				t.Fatalf("counted production = %v, want %v", got, tc.counted)
			}
			bd, err := tool.Code.Exits[0].Bind(func(ref compile.CellRef) (*value.Value, error) {
				return nil, fmt.Errorf("unexpected cell %s", ref.Name)
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			want := "<nil>"
			if tc.fails {
				want = "cinnamon: 3:3: for statement exceeded 50000000 iterations"
			}
			if err := bd.Exec(nil); fmt.Sprint(err) != want {
				t.Fatalf("error %v, want %s", err, want)
			}
		})
	}
}
