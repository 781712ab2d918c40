package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// spanMetrics maps span names to the per-layer metric that reports the
// median self time of those spans, with the metric's time unit.
var spanMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"lexer.Tokenize", "lexer.us", time.Microsecond},
	{"parser.Parse", "parser.us", time.Microsecond},
	{"sem.Check", "sem.us", time.Microsecond},
	{"compile.Compile", "compile.us", time.Microsecond},
	{"asm.Assemble", "asm.us", time.Microsecond},
	{"obj.Load", "obj.load_us", time.Microsecond},
	{"cfg.Build", "cfg.build_us", time.Microsecond},
	{"backend.instrument/janus", "backend.instrument_us.janus", time.Microsecond},
	{"backend.instrument/pin", "backend.instrument_us.pin", time.Microsecond},
	{"backend.instrument/dyninst", "backend.instrument_us.dyninst", time.Microsecond},
	{"vm.exec", "vm.exec_ms", time.Millisecond},
}

// spanLayers computes the span-derived per-layer metrics of a traced
// run (0 for spans the workload never records).
func spanLayers(tr *tracer) map[string]float64 {
	self := tr.selfTimes()
	l := make(map[string]float64)
	for _, m := range spanMetrics {
		var xs []float64
		for _, d := range self[m.span] {
			xs = append(xs, float64(d)/float64(m.unit))
		}
		l[m.metric] = median(xs)
	}
	return l
}

// mismatchesShown bounds the failure diagnostics printed per run.
var mismatchesShown atomic.Int32

// reportMismatch prints a failed or wrong operation to standard error
// (the first few of a run only).
func reportMismatch(what string, err error, got, want any) {
	if mismatchesShown.Add(1) > 5 {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: got %+v, want %+v\n", what, got, want)
}
