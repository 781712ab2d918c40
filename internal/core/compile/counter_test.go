package compile_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core/ast"
	"repro/internal/core/compile"
	"repro/internal/core/engine"
	"repro/internal/core/interp"
	"repro/internal/core/value"
)

// bumpToolSrc wraps one unguarded `before` action body over three
// globals: a numeric array, an unsigned and a signed counter.
func bumpToolSrc(body string) string {
	return `
uint64 a[4];
uint64 total = 0;
int down = 0;
inst I where (I.opcode == Load) {
  before I {
    ` + body + `
  }
}
`
}

// TestCounterFlushAdditive pins the contract counter promotion rests on:
// n firings of a counter-shaped body leave every cell exactly as one
// flush(n*delta) does. Start values sit next to the int64 limits so the
// bumps wrap, and the array slot holds either typed storage or a generic
// line array of the same length.
func TestCounterFlushAdditive(t *testing.T) {
	const n = 7
	bodies := []struct {
		name, body string
		delta      int64
		cell       string // the global CounterShape reports, "" for none
	}{
		{"multi", `a[1] = a[1] + 3; total = 2 + total; down = down - 5; a[3] = a[3] - 1; a[1] = a[1] + 1;`, 1, ""},
		{"single array", `a[2] = a[2] + 6;`, 1, ""},
		{"single scalar", `total = total - 4;`, -4, "total"},
	}
	arrays := map[string]func(a *value.Value){
		"typed": func(a *value.Value) {
			for i := int64(0); i < 4; i++ {
				a.Seq().Set(i, value.IntVal(math.MaxInt64-i))
			}
		},
		"generic line array": func(a *value.Value) {
			*a = value.ArrayValue(value.NewSeq([]value.Value{
				value.StrVal("1"), value.StrVal("9223372036854775806"),
				value.StrVal("-9223372036854775807"), value.StrVal("0x10"),
			}))
		},
	}
	for _, bc := range bodies {
		tool, err := engine.Compile(bumpToolSrc(bc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body *compile.Body
		for _, b := range tool.Code.Actions {
			body = b
		}
		for aname, fillArray := range arrays {
			t.Run(bc.name+"/"+aname, func(t *testing.T) {
				state := func() map[string]*value.Value {
					g := make(map[string]*value.Value)
					for _, item := range tool.Prog.Items {
						if d, ok := item.(*ast.VarDecl); ok {
							v := interp.ZeroValue(tool.Info.DeclTypes[d])
							g[d.Name] = &v
						}
					}
					fillArray(g["a"])
					*g["total"] = value.IntVal(math.MaxInt64 - 3)
					*g["down"] = value.IntVal(math.MinInt64 + 8)
					return g
				}
				bind := func(g map[string]*value.Value) *compile.Bound {
					bd, err := body.Bind(func(ref compile.CellRef) (*value.Value, error) {
						return g[ref.Name], nil
					}, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					return bd
				}
				fired, flushed := state(), state()
				bd := bind(fired)
				for i := 0; i < n; i++ {
					if err := bd.Exec(nil); err != nil {
						t.Fatal(err)
					}
				}
				delta, flush, cell, ok := bind(flushed).CounterShape()
				if !ok || delta != bc.delta {
					t.Fatalf("CounterShape = (%d, ok=%v), want delta %d", delta, ok, bc.delta)
				}
				if want := flushed[bc.cell]; cell != want {
					t.Errorf("CounterShape cell = %p, want %p (%q)", cell, want, bc.cell)
				}
				flush(n * delta)
				for name, fv := range fired {
					if got, want := render(*flushed[name]), render(*fv); got != want {
						t.Errorf("%s: flush(%d) left %s, %d firings left %s", name, n*delta, got, n, want)
					}
				}
			})
		}
	}
}

// render prints a scalar or each element of an array with its kind, so
// that a flush storing an IntVal where a firing kept a line shows up.
func render(v value.Value) string {
	if v.Kind() != value.KArray {
		return fmt.Sprintf("%d:%s", v.Kind(), v)
	}
	s := v.Seq()
	out := "["
	for i := int64(0); i < int64(s.Len()); i++ {
		e := s.Get(i)
		out += fmt.Sprintf(" %d:%s", e.Kind(), e)
	}
	return out + " ]"
}
