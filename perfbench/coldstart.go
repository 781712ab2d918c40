package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"repro/internal/conformance"
	"repro/internal/core/backend"
	"repro/internal/obs"
)

// The coldstart workload is many short cold runs, one at a time: each
// operation takes one generated (tool, victim) pair through one
// backend as a fresh process would, from .cin source and victim
// assembly to the finished run, with no artifact cache. Execution is
// short, so lexing, parsing, checking, compiling, assembling, loading,
// CFG recovery, placement and lowering take most of the time. The
// generated tools cover every CFE kind, trigger and container.

// coldPairs is how many (GenProgram, GenVictim) pairs a run draws;
// with three backends each, the percentiles are over 3×coldPairs cells.
const coldPairs = 2000

var coldBackends = []string{backend.Janus, backend.Dyninst, backend.Pin}

type coldPair struct {
	prog   *conformance.Program
	victim *conformance.Victim
	// ref is the oracle-checked result of each backend's cell.
	ref [3]conformance.RunResult
	// refused marks the legal refusals (Pin on loop commands, Dyninst
	// on unrecoverable control flow).
	refused [3]bool
	// illegal holds the oracle's illegal divergences (empty when the
	// pair conforms); every run of such a pair counts as failed.
	illegal []conformance.Divergence
}

type coldCell struct {
	pair   *coldPair
	be     int
	visits int
	// times and traced hold untraced and traced operation times (ms).
	times, traced []float64
}

func (c *coldCell) String() string {
	return fmt.Sprintf("pair seed %d under %s", c.pair.prog.Seed, coldBackends[c.be])
}

// coldLayer accumulates the traced run's per-operation counts.
type coldLayer struct {
	tokens, blocks, insts                        []float64
	rules, hoisted, promoted, coalesced, opsSeen float64
}

// coldOp is one operation: a cold run of the cell. It returns the
// observables the conformance oracle compares.
func coldOp(c *coldCell, tr *tracer, op int64, lay *coldLayer) conformance.RunResult {
	be := coldBackends[c.be]
	rr := conformance.RunResult{Cell: conformance.Cell{Backend: be}, Fires: map[string]uint64{}}
	root := tr.begin(op, 0, "coldstart.run")
	defer tr.end(root)
	tool, tokens, err := compileTool(c.pair.prog.Source, tr, op, root)
	if err != nil {
		rr.Err = "compile: " + err.Error()
		return rr
	}
	prog, err := loadTarget(c.pair.victim.Srcs, tr, op, root)
	if err != nil {
		rr.Err = "load: " + err.Error()
		return rr
	}
	var out bytes.Buffer
	col := obs.New(obs.Options{})
	res, _, err := runBackend(tool, prog, be, backend.Options{Out: &out, Obs: col}, tr, op, root, false)
	rr.Output = out.String()
	stats := col.Snapshot(be)
	if lay != nil {
		lay.tokens = append(lay.tokens, float64(tokens))
		lay.blocks = append(lay.blocks, float64(blockCount(prog)))
		b := stats.Build
		lay.rules += float64(b.ActionsPlaced)
		lay.hoisted += float64(b.WheresHoisted)
		lay.promoted += float64(b.CountersPromoted)
		lay.coalesced += float64(b.ProbesCoalesced)
		lay.opsSeen++
		if res != nil {
			lay.insts = append(lay.insts, float64(res.Insts))
		}
	}
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	rr.Cycles, rr.Insts, rr.ExitCode = res.Cycles, res.Insts, res.ExitCode
	for _, ps := range stats.Probes {
		rr.Fires[ps.Label] += ps.Fires
	}
	rr.TotalFires = stats.TotalFires
	return rr
}

// genColdPairs draws the run's pairs from the seed.
func genColdPairs(seed uint64, n int) []*coldPair {
	pairs := make([]*coldPair, n)
	for i := range pairs {
		s := splitmix(seed, uint64(i))
		pairs[i] = &coldPair{prog: conformance.GenProgram(s), victim: conformance.GenVictim(s)}
	}
	return pairs
}

// checkColdPair runs the pair through every backend once and classifies
// the results with the conformance oracle.
func checkColdPair(p *coldPair) error {
	var results []conformance.RunResult
	for i := range coldBackends {
		rr := coldOp(&coldCell{pair: p, be: i}, nil, 0, nil)
		p.ref[i] = rr
		results = append(results, rr)
	}
	tool, _, err := compileTool(p.prog.Source, nil, 0, 0)
	if err != nil {
		return fmt.Errorf("pair seed %d: tool does not compile: %w", p.prog.Seed, err)
	}
	prog, err := loadTarget(p.victim.Srcs, nil, 0, 0)
	if err != nil {
		return fmt.Errorf("pair seed %d: victim does not load: %w", p.prog.Seed, err)
	}
	for _, d := range conformance.Compare(results, conformance.DeriveTraits(tool, prog)) {
		switch {
		case d.Legal && d.Class == conformance.ClassPinLoops:
			p.refused[2] = true
		case d.Legal && d.Class == conformance.ClassDyninstCFG:
			p.refused[1] = true
		case !d.Legal:
			p.illegal = append(p.illegal, d)
		}
	}
	return nil
}

func runColdstart(cfg config) (*outcome, error) {
	n := coldPairs
	if cfg.small {
		n = 6
	}
	o := &outcome{}
	var pairs []*coldPair
	var err error
	o.setup, err = timeSetup(setupReps, func() error {
		pairs = genColdPairs(cfg.seed, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The oracle pass doubles as the warm-up.
	var cells []*coldCell
	refusals := 0
	for _, p := range pairs {
		if err := checkColdPair(p); err != nil {
			return nil, err
		}
		for i := range coldBackends {
			cells = append(cells, &coldCell{pair: p, be: i})
			if p.refused[i] {
				refusals++
			}
		}
	}
	var lay *coldLayer
	if cfg.trace {
		o.tr = newTracer()
		lay = &coldLayer{}
	}

	var gaps []float64
	var op int64
	deadline := time.Now().Add(cfg.duration)
	prevEnd := time.Now()
	for pass := uint64(0); time.Now().Before(deadline); pass++ {
		for _, i := range shuffle(len(cells), splitmix(cfg.seed^0xc01d, pass)) {
			c := cells[i]
			var tr *tracer
			var l *coldLayer
			if cfg.trace && c.visits%2 == 1 {
				tr, l = o.tr, lay
			}
			c.visits++
			op++
			t0 := time.Now()
			gaps = append(gaps, ms(t0.Sub(prevEnd)))
			rr := coldOp(c, tr, op, l)
			d := ms(time.Since(t0))
			prevEnd = time.Now()
			o.attempted++
			if len(c.pair.illegal) > 0 {
				o.failed++
				reportMismatch(c.String(), nil, c.pair.illegal[0].String(), "no illegal divergence")
				continue
			}
			if !reflect.DeepEqual(rr, c.pair.ref[c.be]) {
				o.failed++
				reportMismatch(c.String(), nil, rr, c.pair.ref[c.be])
				continue
			}
			if tr == nil {
				c.times = append(c.times, d)
			} else {
				c.traced = append(c.traced, d)
			}
		}
	}

	var p50s []float64
	var overhead []float64
	for _, c := range cells {
		if len(c.times) == 0 {
			continue
		}
		p50s = append(p50s, median(c.times))
		if len(c.traced) > 0 {
			overhead = append(overhead, median(c.traced)/median(c.times))
		}
	}
	o.opMs, o.opP90Ms = median(p50s), quantile(p50s, 0.9)
	o.named = []named{
		{"coldstart_p50_ms", "ms", o.opMs},
		{"coldstart_p90_ms", "ms", o.opP90Ms},
		{"coldstart.cells", "count", float64(len(cells))},
		{"coldstart.expected_refusals", "count", float64(refusals)},
	}
	if cfg.trace {
		o.layer = spanLayers(o.tr)
		o.layer["lexer.tokens"] = mean(lay.tokens)
		o.layer["cfg.blocks"] = mean(lay.blocks)
		o.layer["vm.insts"] = mean(lay.insts)
		o.layer["placement.rules"] = ratio(lay.rules, lay.opsSeen)
		o.layer["placement.wheres_hoisted"] = ratio(lay.hoisted, lay.opsSeen)
		o.layer["placement.counters_promoted"] = ratio(lay.promoted, lay.opsSeen)
		o.layer["placement.probes_coalesced"] = ratio(lay.coalesced, lay.opsSeen)
		o.layer["loadgen.late_ms_p90"] = quantile(gaps, 0.9)
		o.layer["trace.overhead_pct"] = pctDelta(geomean(overhead), 1)
	}
	return o, nil
}
