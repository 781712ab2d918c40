package bench

import (
	"io"
	"os"
	"testing"

	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// everyInstCount is the paper's basic instruction counter (Figure 5a)
// without its opcode filter: one counter bump before every executed
// instruction.
const everyInstCount = `uint64 n = 0;
inst I {
  before I {
    n = n + 1;
  }
}
exit {
  print(n);
}
`

// TestInlinedActionSpeedup is the perf regression gate for the
// action-inlining layer: on an action-heavy workload (a counter probe
// firing on every instruction) the translated tier with inlining must
// beat the same tier with inlining disabled by at least 1.5x. Both tiers
// run the same compiled body, so the gap is what the layer itself adds:
// the inline tier promotes the counter to a block-local accumulator and
// fuses the firing into the operation thunk, where the no-inline tier
// calls the action's generic callback on every firing (measured ~2.3x;
// the margin absorbs CI noise). Like the other perf gates it only runs
// when CINNAMON_PERF_GATE is set.
func TestInlinedActionSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the action-inlining perf gate")
	}
	tool, err := engine.Compile(everyInstCount)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	bench := func(noInline bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := backend.Run(tool, prog, backend.Janus, backend.Options{
					Out:        io.Discard,
					VMMode:     vm.ExecTranslated,
					VMNoInline: noInline,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	measure := func(f func(*testing.B)) float64 {
		best := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || nsPerOp < best {
				best = nsPerOp
			}
		}
		return best
	}
	const want = 1.5
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		plain := measure(bench(true))
		inlined := measure(bench(false))
		speedup = plain / inlined
		t.Logf("attempt %d: no-inline %.0f ns/op, inlined %.0f ns/op, speedup %.2fx",
			attempt, plain, inlined, speedup)
		if speedup >= want {
			return
		}
	}
	t.Errorf("inlined actions are only %.2fx faster than no-inline (want >= %.1fx)", speedup, want)
}

// TestAttributionResidualZeroNoInline pins the attribution invariant on
// the escape-hatch path too: with inlining disabled the decomposition
// into app, probe and translation cycles must still leave residual
// exactly zero. (The inline-on case is TestAttributionResidualZero.)
func TestAttributionResidualZeroNoInline(t *testing.T) {
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := vm.New(prog, vm.Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	tool, err := compileTool(progs.InstCountBB)
	if err != nil {
		t.Fatal(err)
	}
	for _, noInline := range []bool{false, true} {
		col := obs.New(obs.Options{})
		res, err := backend.Run(tool, prog, backend.Janus, backend.Options{
			Out:        io.Discard,
			Obs:        col,
			VMNoInline: noInline,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot(backend.Janus)
		residual := int64(res.Cycles-base.Cycles) - int64(s.ProbeCycles) - int64(s.Build.TranslationCycles)
		if residual != 0 {
			t.Errorf("noInline=%v: residual = %d cycles unattributed (total=%d app=%d probes=%d translation=%d)",
				noInline, residual, res.Cycles, base.Cycles, s.ProbeCycles, s.Build.TranslationCycles)
		}
	}
}
