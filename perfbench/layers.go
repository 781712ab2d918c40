package main

import (
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/backend"
	"repro/internal/core/compile"
	"repro/internal/core/engine"
	"repro/internal/core/lexer"
	"repro/internal/core/parser"
	"repro/internal/core/sem"
	"repro/internal/obj"
	"repro/internal/vm"
)

// The calls below are the layer boundaries of one tool run. Untraced
// operations call the same public entry points a user of the packages
// would (engine.Compile, backend.Run); traced operations call the
// stages one by one so each gets its own span.

// compileTool compiles Cinnamon source. Traced, it runs lexer.Tokenize,
// parser.Parse, sem.Check and compile.Compile separately (exactly the
// stages of engine.Compile, plus one extra lexer pass, since
// parser.Parse lexes internally) and returns the token count.
func compileTool(src string, tr *tracer, op int64, parent int) (*engine.CompiledTool, int, error) {
	if tr == nil {
		t, err := engine.Compile(src)
		return t, 0, err
	}
	id := tr.begin(op, parent, "lexer.Tokenize")
	toks, err := lexer.Tokenize(src)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(op, parent, "parser.Parse")
	prog, err := parser.Parse(src)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(op, parent, "sem.Check")
	info, err := sem.Check(prog)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(op, parent, "compile.Compile")
	code, err := compile.Compile(prog, info)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	return &engine.CompiledTool{Prog: prog, Info: info, Code: code, Src: src}, len(toks), nil
}

// loadTarget assembles victim sources (executable first), loads them
// with the standard runtime and recovers control flow.
func loadTarget(srcs []string, tr *tracer, op int64, parent int) (*cfg.Program, error) {
	id := tr.begin(op, parent, "asm.Assemble")
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		mods = append(mods, m)
	}
	tr.end(id)
	return linkTarget(mods, tr, op, parent)
}

// linkTarget loads assembled modules and recovers control flow.
func linkTarget(mods []*obj.Module, tr *tracer, op int64, parent int) (*cfg.Program, error) {
	id := tr.begin(op, parent, "obj.Load")
	p, err := obj.Load(mods, vm.RuntimeExterns())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(op, parent, "cfg.Build")
	prog, err := cfg.Build(p)
	tr.end(id)
	return prog, err
}

// blockCount is the number of recovered basic blocks over all modules.
func blockCount(prog *cfg.Program) int {
	n := 0
	for _, m := range prog.Modules {
		for _, f := range m.Funcs {
			n += len(f.Blocks)
		}
	}
	return n
}

// execCost is what a traced backend.Run measured around the machine:
// heap allocations and bytes allocated between the OnMachine hook and
// the return of backend.Run.
type execCost struct {
	exec          time.Duration
	allocs, bytes uint64
}

// runBackend calls backend.Run. Traced, it splits the call at the
// backend's OnMachine hook into a "backend.instrument/<backend>" span
// (entry to hook) and a "vm.exec" span (hook to return), and with mem
// it also counts the allocations of the vm.exec part. Pin calls the
// hook when it creates its machine, before lowering its rules, so on
// Pin the rule build is inside vm.exec, with the JIT translation.
func runBackend(tool *engine.CompiledTool, prog *cfg.Program, be string, opts backend.Options, tr *tracer, op int64, parent int, mem bool) (*vm.Result, execCost, error) {
	if tr == nil {
		res, err := backend.Run(tool, prog, be, opts)
		return res, execCost{}, err
	}
	var ms0, ms1 runtime.MemStats
	var hook time.Time
	prev := opts.OnMachine
	opts.OnMachine = func(m *vm.VM) {
		if prev != nil {
			prev(m)
		}
		if mem {
			runtime.ReadMemStats(&ms0)
		}
		hook = time.Now()
	}
	start := time.Now()
	res, err := backend.Run(tool, prog, be, opts)
	end := time.Now()
	var c execCost
	if hook.IsZero() {
		// Refused before a machine existed: all of it is instrumentation.
		tr.add(op, parent, "backend.instrument/"+be, start, end)
		return res, c, err
	}
	if mem {
		runtime.ReadMemStats(&ms1)
		c.allocs, c.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	c.exec = end.Sub(hook)
	tr.add(op, parent, "backend.instrument/"+be, start, hook)
	tr.add(op, parent, "vm.exec", hook, end)
	return res, c, err
}
