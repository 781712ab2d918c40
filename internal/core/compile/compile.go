// Package compile implements Cinnamon's closure-compilation stage: the
// pipeline step between semantic analysis and instrumentation that turns
// action and init/exit bodies into pre-bound Go closures over slot-resolved
// frames.
//
// The tree-walking interpreter (internal/core/interp) re-dispatches on AST
// node types and chases map-backed scope chains on every probe firing —
// fine for the instrumentation stage, where each command body runs once per
// control-flow element, but a real dispatch tax in the execution stage,
// where action bodies run once per probe firing (billions of times on the
// Figure 13 workloads). Closure compilation pays the translation cost once,
// at tool-compile time, the same philosophy as the trace caches of the
// dynamic frameworks Cinnamon targets.
//
// Each body is compiled by exactly one walk (one compiler value), which
// resolves and lowers at the same time:
//
//   - one frame: every identifier gets one slot — body-locals become
//     indices into a flat []value.Value frame, free variables become cells
//     (captured analysis data, copied by value at placement time, or shared
//     tool globals), and dynamic attributes become indices into the probe's
//     materialized attribute slots;
//   - one closure per node, chosen per node: where sem's static types
//     guarantee an integer- or bool-shaped value, the node lowers to an
//     unboxed int64/bool production (scalar.go) that reads and writes the
//     typed int64 storage of numeric containers directly and boxes a Value
//     only at slot stores; otherwise it lowers to the boxed Value
//     production (lower.go).
//     Executing a body is a chain of direct calls with no AST dispatch, no
//     map lookups, and no per-firing allocation;
//   - one flag: the walk records whether any node of the body or guard had
//     to box. Bodies that never box are the ones the VM's inline tier may
//     call from specialized probe thunks (Bound.FastExec), and the unguarded
//     single-statement bumps among them are classified as counters
//     (Bound.CounterShape).
//
// Compiled bodies must be observationally identical to the interpreter —
// same output, same runtime errors (message and position), same cost-model
// numbers; the equivalence tests in this package and in
// internal/core/backend enforce this.
package compile

import (
	"fmt"
	"io"

	"repro/internal/core/ast"
	"repro/internal/core/sem"
	"repro/internal/core/token"
	"repro/internal/core/value"
)

// CellRef names one free variable of a compiled body and how to bind it:
// globals resolve to the tool's shared cells, captures are copied by value
// from the instrumentation-time scope at placement time.
type CellRef struct {
	Name   string
	Global bool
}

// Body is one compiled action or init/exit body: one closure chain plus
// the frame layout it was resolved against. A Body is immutable after
// Compile: every piece of mutable execution state lives in the frame of
// a Bound, so bindings of one Body may run concurrently.
type Body struct {
	// Cells lists the body's free variables in bind order.
	Cells []CellRef
	// DynAttrs is the dynamic-attribute slot layout (the action's
	// sem.ActionInfo.DynAttrs, in the same order the backends materialize).
	DynAttrs []sem.DynAttr
	// NumLocals is the body-local frame size.
	NumLocals int

	// guard is the compiled dynamic constraint (nil if none); it runs
	// before the body on every firing.
	guard boolFn
	stmts []stmtFn

	// boxed records that some node of the body or guard had no unboxed
	// production and lowered to a Value closure; guardBoxed records the
	// same for the guard alone.
	boxed, guardBoxed bool

	// counter-shape classification: an unboxed body that is exactly one
	// `x = x ± k` bump of cell counterCell with constant nonzero delta.
	counter      bool
	counterCell  int
	counterDelta int64
}

// frame is the execution state of one body invocation: bound cells, the
// local slot frame, the probe's materialized dynamic attributes, the
// tool output writer and print()'s reusable line buffer.
type frame struct {
	cells  []*value.Value
	locals []value.Value
	dyn    []value.Value
	out    io.Writer
	line   []byte
}

// stmtFn executes one compiled statement.
type stmtFn func(fr *frame) error

// exprFn evaluates one compiled expression to a boxed Value.
type exprFn func(fr *frame) (value.Value, error)

// CellResolver binds one free variable at placement time.
type CellResolver func(ref CellRef) (*value.Value, error)

// Bound is a placed body: cells resolved, local frame allocated. Exec may
// be called many times (once per probe firing); the local frame is reused
// across firings — every local is (re)declared before use, so no stale
// state is observable — which makes steady-state execution allocation-free.
// A Bound is not safe for concurrent use; probes of one VM fire
// sequentially, which is the only way the engine calls it.
type Bound struct {
	body *Body
	fr   frame
}

// Bind resolves the body's cells against a placement scope and allocates
// its local frame. out receives print() output.
func (b *Body) Bind(resolve CellResolver, out io.Writer) (*Bound, error) {
	bd := &Bound{body: b, fr: frame{out: out}}
	if n := len(b.Cells); n > 0 {
		bd.fr.cells = make([]*value.Value, n)
		for i, c := range b.Cells {
			cell, err := resolve(c)
			if err != nil {
				return nil, err
			}
			bd.fr.cells[i] = cell
		}
	}
	if b.NumLocals > 0 {
		bd.fr.locals = make([]value.Value, b.NumLocals)
	}
	return bd, nil
}

// Exec runs the bound body with the probe's materialized dynamic attribute
// values (indexed per Body.DynAttrs). The first runtime error aborts the
// invocation and is returned.
func (b *Bound) Exec(dyn []value.Value) error {
	fr := &b.fr
	fr.dyn = dyn
	if g := b.body.guard; g != nil {
		if ok, err := g(fr); err != nil || !ok {
			return err
		}
	}
	return runStmts(fr, b.body.stmts)
}

// FastExec returns Exec when no node of the body boxes a Value — the
// bodies the VM's inline tier may call from a specialized probe thunk —
// and nil otherwise.
func (b *Bound) FastExec() func(dyn []value.Value) error {
	if b.body.boxed {
		return nil
	}
	return b.Exec
}

// CounterShape reports whether the bound body is a pure counter bump —
// no guard, exactly `x = x ± k` on a captured or global cell — and, if
// so, returns the per-firing delta and a flush function such that n
// consecutive firings leave every observable equal to one flush(n*delta)
// call: each firing rewrites the cell to KInt(AsInt(cell)+delta), so the
// composition is exactly additive.
func (b *Bound) CounterShape() (delta int64, flush func(n int64), ok bool) {
	cell := b.CounterCell()
	if cell == nil {
		return 0, nil, false
	}
	return b.body.counterDelta, func(n int64) {
		*cell = value.IntVal(cell.AsInt() + n)
	}, true
}

// CounterCell returns the storage cell a counter-shaped body bumps
// (nil when CounterShape is false). Global counters resolve to the
// shared interpreter slot, so two bodies bumping the same global
// return the same pointer — the identity the placement coalescing
// pass merges on. Captured locals bind fresh per-placement cells and
// therefore never alias.
func (b *Bound) CounterCell() *value.Value {
	if !b.body.counter {
		return nil
	}
	return b.fr.cells[b.body.counterCell]
}

// Program is the compiled form of a whole tool: one Body per action and per
// init/exit block. It is immutable after Compile and safe for concurrent
// Bind calls from parallel instrumentation runs.
type Program struct {
	// Actions maps each action node to its compiled body.
	Actions map[*ast.Action]*Body
	// Inits and Exits parallel sem.Info.Inits / Info.Exits.
	Inits, Exits []*Body
}

// Compile lowers every action and init/exit body of a checked program.
// prog must have passed sem.Check with the given info.
func Compile(prog *ast.Program, info *sem.Info) (*Program, error) {
	cp := &Program{Actions: make(map[*ast.Action]*Body)}
	// All globals are visible to every body: the engine declares them
	// before anything executes, so even a body placed earlier in source
	// order resolves a later global. Command-scope names, by contrast,
	// become visible in source order (see compileCommand).
	globals := &outerScope{global: true, names: make(map[string]bool)}
	for _, item := range prog.Items {
		if d, ok := item.(*ast.VarDecl); ok {
			globals.names[d.Name] = true
		}
	}
	for _, item := range prog.Items {
		switch it := item.(type) {
		case *ast.InitBlock:
			b, err := compileBody(info, nil, it.Body, nil, globals)
			if err != nil {
				return nil, err
			}
			cp.Inits = append(cp.Inits, b)
		case *ast.ExitBlock:
			b, err := compileBody(info, nil, it.Body, nil, globals)
			if err != nil {
				return nil, err
			}
			cp.Exits = append(cp.Exits, b)
		case *ast.Command:
			if err := cp.compileCommand(info, it, globals); err != nil {
				return nil, err
			}
		}
	}
	return cp, nil
}

// outerScope is a compile-time scope outside the body being compiled: the
// global scope or one enclosing command's scope.
type outerScope struct {
	parent *outerScope
	names  map[string]bool
	global bool
}

func (s *outerScope) resolve(name string) (CellRef, bool) {
	for o := s; o != nil; o = o.parent {
		if o.names[name] {
			return CellRef{Name: name, Global: o.global}, true
		}
	}
	return CellRef{}, false
}

func (cp *Program) compileCommand(info *sem.Info, cmd *ast.Command, parent *outerScope) error {
	scope := &outerScope{parent: parent, names: map[string]bool{cmd.Var: true}}
	for _, item := range cmd.Body {
		switch it := item.(type) {
		case *ast.Command:
			if err := cp.compileCommand(info, it, scope); err != nil {
				return err
			}
		case *ast.Action:
			ai := info.Actions[it]
			if ai == nil {
				return fmt.Errorf("cinnamon: internal: unchecked action at %s", it.Pos())
			}
			var guard ast.Expr
			if ai.WhereDynamic {
				guard = it.Where
			}
			b, err := compileBody(info, ai.DynAttrs, it.Body, guard, scope)
			if err != nil {
				return err
			}
			cp.Actions[it] = b
		case *ast.DeclStmt:
			// Top-level analysis declarations join the command scope and
			// are visible to (and captured by) later actions; declarations
			// nested inside analysis if/for bodies do not escape, exactly
			// as the interpreter scopes them.
			scope.names[it.Decl.Name] = true
		}
	}
	return nil
}

// compiler carries the per-body lowering state.
type compiler struct {
	info  *sem.Info
	outer *outerScope

	cells   []CellRef
	cellIdx map[string]int
	dyn     []sem.DynAttr

	nLocals int
	scope   *localScope

	// boxed is set by every production that falls back to a Value.
	boxed bool
}

// localScope is a body-local lexical scope (if/for bodies open new ones).
type localScope struct {
	parent *localScope
	names  map[string]int
}

func compileBody(info *sem.Info, dyn []sem.DynAttr, body []ast.Stmt, guard ast.Expr, outer *outerScope) (*Body, error) {
	c := &compiler{info: info, outer: outer, cellIdx: make(map[string]int), dyn: dyn}
	c.pushScope()
	b := &Body{DynAttrs: dyn}
	if guard != nil {
		// The guard runs in the placement scope before any body locals
		// exist; compiling it first keeps its resolution body-independent.
		b.guard = c.compileCond(guard)
		b.guardBoxed = c.boxed
	}
	b.stmts = c.compileStmts(body)
	b.boxed = c.boxed
	if !b.boxed && guard == nil {
		b.counterDelta, b.counterCell, b.counter = c.classifyCounter(body)
	}
	b.Cells = c.cells
	b.NumLocals = c.nLocals
	return b, nil
}

func (c *compiler) pushScope() {
	c.scope = &localScope{parent: c.scope, names: make(map[string]int)}
}

func (c *compiler) popScope() { c.scope = c.scope.parent }

// defineLocal assigns a fresh slot for a body-local declaration; shadowed
// names get distinct slots, matching the interpreter's nested frames.
func (c *compiler) defineLocal(name string) int {
	idx := c.nLocals
	c.nLocals++
	c.scope.names[name] = idx
	return idx
}

// slot is a resolved identifier: a body-local index or a cell index.
type slot struct {
	local bool
	idx   int
}

func (c *compiler) resolve(name string) (slot, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if i, ok := s.names[name]; ok {
			return slot{local: true, idx: i}, true
		}
	}
	if ref, ok := c.outer.resolve(name); ok {
		if i, ok := c.cellIdx[name]; ok {
			return slot{idx: i}, true
		}
		i := len(c.cells)
		c.cells = append(c.cells, ref)
		c.cellIdx[name] = i
		return slot{idx: i}, true
	}
	return slot{}, false
}

// dynSlot resolves a dynamic attribute use to its materialized-value slot.
func (c *compiler) dynSlot(varName, attr string) (int, bool) {
	for i, da := range c.dyn {
		if da.Var == varName && da.Attr == attr {
			return i, true
		}
	}
	return 0, false
}

// classifyCounter recognizes the pure counter bump: exactly one
// statement, `x = x + k` / `x = k + x` / `x = x - k` on a non-local
// numeric cell with constant nonzero delta. The caller applies it only
// to unguarded bodies that never box. The VM relies on the classified
// shape being exactly additive: n firings from any start value leave the
// cell at KInt(AsInt(start) + n*delta), which is what a single
// Flush(n*delta) produces.
func (c *compiler) classifyCounter(body []ast.Stmt) (delta int64, cell int, ok bool) {
	if len(body) != 1 {
		return 0, 0, false
	}
	as, ok := body[0].(*ast.AssignStmt)
	if !ok {
		return 0, 0, false
	}
	lhs, ok := as.LHS.(*ast.Ident)
	if !ok {
		return 0, 0, false
	}
	bin, ok := as.RHS.(*ast.BinaryExpr)
	if !ok {
		return 0, 0, false
	}
	if k, ok := litInt(bin.Y); ok && identNamed(bin.X, lhs.Name) {
		switch bin.Op {
		case token.PLUS:
			delta = k
		case token.MINUS:
			delta = -k
		}
	} else if k, ok := litInt(bin.X); ok && bin.Op == token.PLUS && identNamed(bin.Y, lhs.Name) {
		delta = k
	}
	if delta == 0 {
		return 0, 0, false
	}
	sl, ok := c.resolve(lhs.Name)
	if !ok || sl.local {
		return 0, 0, false
	}
	return delta, sl.idx, true
}

func litInt(e ast.Expr) (int64, bool) {
	if l, ok := e.(*ast.IntLit); ok {
		return l.Val, true
	}
	return 0, false
}

func identNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
