package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/cfg"
	"repro/internal/core/backend"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The profile workload is the analyst's long run, closed loop with one
// run at a time: each operation compiles a case-study tool from .cin
// source and runs it on a SPEC-like benchmark to its finished report
// (tool output, cycles, instructions). Probe dispatch and action bodies
// take almost all of the time, so this is where a faster VM or action
// lowering shows.

// profilePool is the drawn benchmark set: every benchmark of the suite
// that Dyninst accepts (recoverable control flow), has no shared
// library, and runs under 1M instructions at scale 1.0, so that its
// interpreted reference fits in set-up. All of them run every pass;
// the seed draws the order. A seed-chosen subset would move
// profile_run_ms by the choice alone, which is not the program's speed.
var profilePool = []string{"leela", "mcf", "xz", "namd", "nab"}

// profileScale is the benchmarks' input scale (1.0 = the paper's test
// input).
const profileScale = 1.0

type profileTarget struct {
	name string
	prog *cfg.Program
	base *vm.Result
	// baseNs is the median uninstrumented execution time (traced runs).
	baseNs float64
}

// toolReport is the observable result of one tool run.
type toolReport struct {
	out           string
	cycles, insts uint64
}

type profileCell struct {
	tool, src, backend string
	target             *profileTarget
	ref                toolReport
	visits             int
	// times and traced hold untraced and traced operation times (ms).
	times, traced []float64
	// Traced-run measurements: per-operation execution time (ns) and
	// allocations, and the run's probe firings.
	execNs, allocs, bytes []float64
	fires                 uint64
}

func (c *profileCell) String() string {
	return fmt.Sprintf("%s on %s under %s", c.tool, c.target.name, c.backend)
}

// buildProfileTargets generates, assembles and loads the drawn
// benchmarks and runs each once uninstrumented.
func buildProfileTargets(names []string) ([]*profileTarget, error) {
	var ts []*profileTarget
	for _, name := range names {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		mods, err := spec.Build(profileScale)
		if err != nil {
			return nil, err
		}
		prog, err := linkTarget(mods, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		base, err := vm.New(prog, vm.Config{}).Run()
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", name, err)
		}
		ts = append(ts, &profileTarget{name: name, prog: prog, base: base})
	}
	return ts, nil
}

// profileCells crosses the targets with the case-study tools: every
// tool on Janus, and the Figure 13 tool (instcount_bb) also on Pin and
// Dyninst.
func profileCells(targets []*profileTarget, tools []string) []*profileCell {
	var cells []*profileCell
	for _, t := range targets {
		for _, tool := range tools {
			bes := []string{backend.Janus}
			if tool == progs.InstCountBB {
				bes = append(bes, backend.Pin, backend.Dyninst)
			}
			for _, be := range bes {
				cells = append(cells, &profileCell{tool: tool, src: progs.MustSource(tool), backend: be, target: t})
			}
		}
	}
	return cells
}

// referenceRun runs a tool on the reference tiers: the interpreted VM
// and the tree-walking action interpreter.
func referenceRun(c *profileCell) (toolReport, error) {
	tool, _, err := compileTool(c.src, nil, 0, 0)
	if err != nil {
		return toolReport{}, err
	}
	var buf bytes.Buffer
	res, err := backend.Run(tool, c.target.prog, c.backend, backend.Options{
		Out: &buf, VMMode: vm.ExecInterpreted, Interpret: true,
	})
	if err != nil {
		return toolReport{}, err
	}
	return toolReport{buf.String(), res.Cycles, res.Insts}, nil
}

// profileOp is one operation: source to finished report.
func profileOp(c *profileCell, tr *tracer, op int64) (toolReport, execCost, error) {
	root := tr.begin(op, 0, "profile.run")
	defer tr.end(root)
	tool, _, err := compileTool(c.src, tr, op, root)
	if err != nil {
		return toolReport{}, execCost{}, err
	}
	var buf bytes.Buffer
	res, cost, err := runBackend(tool, c.target.prog, c.backend, backend.Options{Out: &buf}, tr, op, root, true)
	if err != nil {
		return toolReport{}, cost, err
	}
	return toolReport{buf.String(), res.Cycles, res.Insts}, cost, nil
}

func runProfile(cfg config) (*outcome, error) {
	pool, tools := profilePool, progs.Names()
	if cfg.small {
		pool, tools = []string{"mcf"}, []string{progs.InstCountBB, progs.LoopCoverage}
	}
	o := &outcome{}
	var targets []*profileTarget
	var err error
	o.setup, err = timeSetup(setupReps, func() error {
		targets, err = buildProfileTargets(pool)
		if err != nil {
			return err
		}
		for _, tool := range tools {
			if _, _, err := compileTool(progs.MustSource(tool), nil, 0, 0); err != nil {
				return fmt.Errorf("%s: %w", tool, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := profileCells(targets, tools)
	for _, c := range cells {
		if c.ref, err = referenceRun(c); err != nil {
			return nil, fmt.Errorf("reference %s: %w", c, err)
		}
	}
	if cfg.trace {
		o.tr = newTracer()
		if err := profileTraceSetup(targets, cells); err != nil {
			return nil, err
		}
	}
	// Warm-up: one untimed pass, so lazy runtime set-up and heap growth
	// are not charged to the first cells.
	for _, c := range cells {
		if _, _, err := profileOp(c, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}

	var gaps []float64
	var op int64
	deadline := time.Now().Add(cfg.duration)
	prevEnd := time.Now()
	for pass := uint64(0); time.Now().Before(deadline); pass++ {
		for _, i := range shuffle(len(cells), splitmix(cfg.seed, pass)) {
			c := cells[i]
			var tr *tracer
			if cfg.trace && c.visits%2 == 1 {
				tr = o.tr
			}
			c.visits++
			op++
			t0 := time.Now()
			gaps = append(gaps, ms(t0.Sub(prevEnd)))
			rep, cost, err := profileOp(c, tr, op)
			d := ms(time.Since(t0))
			prevEnd = time.Now()
			o.attempted++
			if err != nil || rep != c.ref {
				o.failed++
				reportMismatch(c.String(), err, rep, c.ref)
				continue
			}
			if tr == nil {
				c.times = append(c.times, d)
			} else {
				c.traced = append(c.traced, d)
				c.execNs = append(c.execNs, float64(cost.exec.Nanoseconds()))
				c.allocs = append(c.allocs, float64(cost.allocs))
				c.bytes = append(c.bytes, float64(cost.bytes))
			}
		}
	}

	var p50s []float64
	for _, c := range cells {
		if len(c.times) > 0 {
			p50s = append(p50s, median(c.times))
		}
	}
	o.opMs, o.opP90Ms = geomean(p50s), quantile(p50s, 0.9)
	o.named = []named{
		{"profile_run_ms", "ms", o.opMs},
		{"profile_run_p90_ms", "ms", o.opP90Ms},
	}
	if cfg.trace {
		o.layer = spanLayers(o.tr)
		profileLayers(o.layer, targets, cells)
		o.layer["loadgen.late_ms_p90"] = quantile(gaps, 0.9)
	}
	return o, nil
}

// profileTraceSetup takes the traced run's untimed measurements: the
// uninstrumented execution time of every target and the probe firings
// of every cell (counted on a separate run with a collector attached,
// so timed runs carry no collection cost).
func profileTraceSetup(targets []*profileTarget, cells []*profileCell) error {
	for _, t := range targets {
		var ns []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := vm.New(t.prog, vm.Config{}).Run(); err != nil {
				return err
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		t.baseNs = median(ns)
	}
	for _, c := range cells {
		tool, _, err := compileTool(c.src, nil, 0, 0)
		if err != nil {
			return err
		}
		col := obs.New(obs.Options{})
		if _, err := backend.Run(tool, c.target.prog, c.backend, backend.Options{Out: io.Discard, Obs: col}); err != nil {
			return fmt.Errorf("counting fires of %s: %w", c, err)
		}
		c.fires = col.Snapshot(c.backend).TotalFires
	}
	return nil
}

// profileLayers derives the VM and probe-dispatch metrics from the
// traced operations of every cell.
func profileLayers(l map[string]float64, targets []*profileTarget, cells []*profileCell) {
	var execMs, insts, overhead []float64
	var fires, dispatchNs, allocs, bytes, baseNs, baseInsts, extraCycles, baseCycles float64
	for _, t := range targets {
		baseNs += t.baseNs
		baseInsts += float64(t.base.Insts)
	}
	for _, c := range cells {
		insts = append(insts, float64(c.ref.insts))
		extraCycles += float64(c.ref.cycles - c.target.base.Cycles)
		baseCycles += float64(c.target.base.Cycles)
		if len(c.execNs) == 0 {
			continue
		}
		exec := median(c.execNs)
		execMs = append(execMs, exec/1e6)
		fires += float64(c.fires)
		dispatchNs += exec - c.target.baseNs
		allocs += median(c.allocs)
		bytes += median(c.bytes)
		if len(c.times) > 0 {
			overhead = append(overhead, median(c.traced)/median(c.times))
		}
	}
	l["vm.exec_ms"] = geomean(execMs)
	l["vm.insts"] = mean(insts)
	l["vm.baseline_ns_per_inst"] = ratio(baseNs, baseInsts)
	l["probe.fires"] = fires
	l["probe.ns_per_fire"] = ratio(dispatchNs, fires)
	l["probe.allocs_per_fire"] = ratio(allocs, fires)
	l["probe.bytes_per_fire"] = ratio(bytes, fires)
	l["probe.sim_overhead_pct"] = 100 * ratio(extraCycles, baseCycles)
	l["trace.overhead_pct"] = pctDelta(geomean(overhead), 1)
}
