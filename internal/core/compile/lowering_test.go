package compile_test

// TestLoweringGolden pins how every action body is lowered: scalar,
// counter-shaped or boxed, and the same for its dynamic guard. The
// classification decides each action's inline mechanism (MechFast,
// MechCounter or MechGeneric), so any change to it is a behaviour change
// of the VM's inline tier. Regenerate with `go test -run
// TestLoweringGolden -update` only when such a change is intended.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core/compile"
	"repro/internal/core/engine"
	"repro/internal/progs"
)

var update = flag.Bool("update", false, "rewrite the lowering golden")

func TestLoweringGolden(t *testing.T) {
	var b strings.Builder
	dump := func(name, src string) {
		tool, err := engine.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, line := range compile.Lowering(tool.Code) {
			fmt.Fprintf(&b, "%s %s\n", name, line)
		}
	}
	for _, name := range progs.Names() {
		dump(name, progs.MustSource(name))
	}
	for seed := uint64(0); seed < 200; seed++ {
		dump(fmt.Sprintf("seed%03d", seed), conformance.GenProgram(seed).Source)
	}
	path := filepath.Join("testdata", "golden", "lowering.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("lowering classification drifted from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl, gl)
		}
	}
	return "(no difference)"
}
