package compile_test

// BenchmarkActionExec isolates what the compile package exists to speed
// up: executing one action body, with the placement machinery factored
// out. A capturing placer grabs an action as the engine places it, and
// the benchmark fires that action directly — once per op — under the
// tree-walking interpreter and under the compiled closures. Three inputs:
// the basic-block counting action (Figure 5b), whose body is all scalar;
// loop coverage's `entry L` action (Figure 6), whose whole body boxes:
// every dict access is keyed by the static attribute `L.id`, and
// `loop_ids.add` boxes too; and loop coverage's `entry B` action, a
// scalar body that per firing walks the vector loop_ids and reads the
// dicts live and loop_blocks through their typed int64 storage. Its
// state is bounded: the keys come from loop_ids, which the entry actions
// fill once before timing.
// TestCompiledActionExecSpeedup holds the compiled path on the first
// input to the advertised bar: at least 3x fewer ns/op and allocations
// per firing.

import (
	"io"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/progs"
)

// capturePlacer records every action the engine places and accepts all
// trigger points.
type capturePlacer struct {
	prog    *cfg.Program
	actions []*placement.Action
}

func (p *capturePlacer) Name() string           { return "capture" }
func (p *capturePlacer) Modules() []*cfg.Module { return p.prog.Modules }
func (p *capturePlacer) SupportsLoops() bool    { return true }

func (p *capturePlacer) Lower(rs *placement.RuleSet) error {
	for _, r := range rs.Rules() {
		if len(r.Merged) > 0 {
			for _, c := range r.Merged {
				p.actions = append(p.actions, c.Action)
			}
			continue
		}
		p.actions = append(p.actions, r.Action)
	}
	return nil
}

// actionInput names a case-study tool, the target it instruments, the
// label prefix of the placed action to fire, and optionally the label
// prefix of actions to fire once, before it, to set up state.
type actionInput struct {
	tool, target, label, setup string
}

var (
	bbAction        = actionInput{tool: progs.InstCountBB, target: "src:loads"}
	loopEntryAction = actionInput{tool: progs.LoopCoverage, target: "loopy", label: "entry loop @11:3"}
	loopBlockAction = actionInput{tool: progs.LoopCoverage, target: "loopy", label: "entry basicblock @23:3", setup: "entry loop @11:3"}
)

// placeAction instruments the input's target with its tool, fires the
// input's setup actions once, and returns the first placed action whose
// label has the input's prefix, plus the instance (to check for recorded
// runtime errors afterwards).
func placeAction(tb testing.TB, in actionInput, interpret bool) (*placement.Action, *engine.Instance) {
	tb.Helper()
	tool, err := engine.Compile(progs.MustSource(in.tool))
	if err != nil {
		tb.Fatal(err)
	}
	prog := buildTargetTB(tb, in.target)
	pl := &capturePlacer{prog: prog}
	inst, err := engine.Instrument(tool, prog, pl, engine.Options{Out: io.Discard, Interpret: interpret})
	if err != nil {
		tb.Fatal(err)
	}
	if in.setup != "" {
		for _, a := range pl.actions {
			if strings.HasPrefix(a.Label, in.setup) {
				a.Exec(nil)
			}
		}
	}
	for _, a := range pl.actions {
		if strings.HasPrefix(a.Label, in.label) {
			return a, inst
		}
	}
	tb.Fatalf("no placed %s action labelled %q", in.tool, in.label)
	return nil, nil
}

func benchActionExec(in actionInput, interpret bool) func(b *testing.B) {
	return func(b *testing.B) {
		a, inst := placeAction(b, in, interpret)
		// Every dynamic attribute reads 1 (the loop-coverage actions
		// have none: `L.id` is static).
		dyn := make([]value.Value, len(a.DynAttrs))
		for i := range dyn {
			dyn[i] = value.IntVal(1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Exec(dyn)
		}
		b.StopTimer()
		if err := inst.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkActionExec(b *testing.B) {
	b.Run("interp", benchActionExec(bbAction, true))
	b.Run("compiled", benchActionExec(bbAction, false))
	b.Run("loop-entry/interp", benchActionExec(loopEntryAction, true))
	b.Run("loop-entry/compiled", benchActionExec(loopEntryAction, false))
	b.Run("loop-block/interp", benchActionExec(loopBlockAction, true))
	b.Run("loop-block/compiled", benchActionExec(loopBlockAction, false))
}

// TestCompiledActionExecSpeedup enforces the perf contract of the
// closure-compilation stage: per firing, the compiled path must be at
// least 3x cheaper than the interpreter in both time and allocations.
func TestCompiledActionExecSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping measurement in -short mode")
	}
	ir := testing.Benchmark(benchActionExec(bbAction, true))
	cr := testing.Benchmark(benchActionExec(bbAction, false))
	t.Logf("interp:   %v, %d allocs/op", ir, ir.AllocsPerOp())
	t.Logf("compiled: %v, %d allocs/op", cr, cr.AllocsPerOp())
	if 3*cr.NsPerOp() > ir.NsPerOp() {
		t.Errorf("compiled %d ns/op is not 3x faster than interp %d ns/op", cr.NsPerOp(), ir.NsPerOp())
	}
	if 3*cr.AllocsPerOp() > ir.AllocsPerOp() {
		t.Errorf("compiled %d allocs/op is not 3x fewer than interp %d allocs/op", cr.AllocsPerOp(), ir.AllocsPerOp())
	}
}
