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
	}{
		{"scalar", `n = d[I.memaddr];`, true},
		{"read-modify-write", `int k = I.memaddr; d[k] = d[k] + 1;`, true},
		{"read-modify-write literal key", `d[3] = d[3] - n / (I.memaddr - I.memaddr);`, true},
		{"boxed", `n = d[z["k"]];`, false},
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
					if decl.Name == "d" {
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
			if fast := bd.FastExec(); fast != nil {
				if fErr := fast(dyn); fmt.Sprint(fErr) != fmt.Sprint(cErr) {
					t.Errorf("FastExec error %v, Exec error %v", fErr, cErr)
				}
			}
			runEnv := interp.NewEnv(env)
			runEnv.SetDyn(map[string]value.Value{"I.memaddr": dyn[0]})
			iErr := interp.New(tool.Info, io.Discard, nil).ExecStmts(runEnv, act.Body)
			if iErr == nil || cErr == nil {
				t.Fatalf("both paths must fail: interp=%v compiled=%v", iErr, cErr)
			}
			if iErr.Error() != cErr.Error() {
				t.Errorf("error diverged:\ninterp:   %v\ncompiled: %v", iErr, cErr)
			}
			if !strings.Contains(cErr.Error(), "not indexable") {
				t.Errorf("unexpected error %v", cErr)
			}
		})
	}
}
