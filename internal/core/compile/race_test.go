package compile_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/compile"
	"repro/internal/core/engine"
	"repro/internal/core/value"
)

// printSrc has one scalar action body that prints a dynamic attribute.
const printSrc = `
inst I where (I.opcode == Load) {
  before I {
    print("load", I.memaddr);
  }
}
`

// TestConcurrentBoundPrint binds one compiled body twice and fires both
// bindings from two goroutines, as concurrent sessions sharing a cached
// tool do. Each binding must print only its own values; run under -race
// it also checks that a compiled body keeps no state shared between its
// bindings.
func TestConcurrentBoundPrint(t *testing.T) {
	tool, err := engine.Compile(printSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tool.Code.Actions) != 1 {
		t.Fatalf("want one action, got %d", len(tool.Code.Actions))
	}
	if low := compile.Lowering(tool.Code); !strings.Contains(low[0], " scalar ") {
		t.Fatalf("print body has no scalar lowering: %s", low[0])
	}
	var body *compile.Body
	for _, b := range tool.Code.Actions {
		body = b
	}
	noCells := func(ref compile.CellRef) (*value.Value, error) {
		t.Fatalf("unexpected cell %v", ref)
		return nil, nil
	}
	const fires = 2000
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 2)
	for g := range outs {
		bd, err := body.Bind(noCells, &outs[g])
		if err != nil {
			t.Fatal(err)
		}
		dyn := []value.Value{value.IntVal(int64(g + 1))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fires; i++ {
				if err := bd.Exec(dyn); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range outs {
		want := strings.Repeat("load "+string(rune('1'+g))+"\n", fires)
		if got := outs[g].String(); got != want {
			t.Errorf("binding %d printed another binding's values", g)
		}
	}
}
