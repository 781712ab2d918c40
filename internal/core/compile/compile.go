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
//   - one frame: every identifier gets one slot, a pointer to either
//     body-local storage or a cell (captured analysis data, copied by
//     value at placement time, or a shared tool global), and dynamic
//     attributes become indices into the probe's materialized attribute
//     slots;
//   - one closure per node, chosen per node: where sem's static types
//     guarantee an integer- or bool-shaped value, the node lowers to an
//     unboxed int64/bool production (scalar.go) that reads and writes the
//     typed int64 storage of numeric containers directly and boxes a Value
//     only at slot stores; otherwise it lowers to the boxed Value
//     production (lower.go). Literal and slot operands and
//     read-modify-writes are fused into their consumer (operand,
//     scalarAssign).
//     Executing a body is a chain of direct calls with no AST dispatch, no
//     map lookups, and no per-firing allocation;
//   - one flag: the walk records whether any node of the body or guard had
//     to box. The unguarded bodies that never box and are nothing but
//     constant bumps of cells and array elements are classified as
//     counters (Bound.CounterShape), which the VM's inline tier promotes
//     to block-local accumulators.
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
	"repro/internal/core/types"
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
	// NumSlots is the frame size: one slot per body-local and per cell.
	NumSlots int
	// cellSlots is the frame slot of each cell, parallel to Cells.
	cellSlots []slot

	// guard is the compiled dynamic constraint (nil if none); it runs
	// before the body on every firing.
	guard boolFn
	stmts []stmtFn

	// boxed records that some node of the body or guard had no unboxed
	// production and lowered to a Value closure; guardBoxed records the
	// same for the guard alone.
	boxed, guardBoxed bool

	// bumps is the counter-shape classification: an unguarded body that
	// never boxes and is a sequence of constant bumps, one per statement
	// (empty for every other body).
	bumps []bump
}

// bump is one constant-delta statement of a counter-shaped body: the
// cell in slot cell (or, for an array, its element index) gains k per
// firing.
type bump struct {
	cell  slot
	index int64 // element index; -1 for a scalar cell
	k     int64
}

// frame is the execution state of one body invocation: one pointer per
// slot (to a bound cell or to body-local storage), the probe's
// materialized dynamic attributes, the tool output writer and print()'s
// reusable line buffer.
type frame struct {
	slots []*value.Value
	dyn   []value.Value
	out   io.Writer
	line  []byte
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
	bd := &Bound{body: b, fr: frame{out: out, slots: make([]*value.Value, b.NumSlots)}}
	for i, c := range b.Cells {
		cell, err := resolve(c)
		if err != nil {
			return nil, err
		}
		bd.fr.slots[b.cellSlots[i]] = cell
	}
	if n := b.NumSlots - len(b.Cells); n > 0 {
		locals := make([]value.Value, n)
		for i, p := range bd.fr.slots {
			if p == nil {
				bd.fr.slots[i], locals = &locals[0], locals[1:]
			}
		}
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

// CounterShape reports whether the bound body is a pure counter (see
// classifyCounter) and, if so, returns the per-firing delta and a flush
// function such that n consecutive firings leave every observable equal
// to one flush(n*delta) call: each bump rewrites its target to
// IntVal(AsInt(target)+k), which composes additively under int64
// wraparound. Most bodies count firings (delta 1) and flush n*k into
// each target. A single scalar bump instead counts in units of its own k
// and reports its cell, the identity the placement coalescing pass
// merges on: globals resolve to the shared interpreter slot, so two
// bodies bumping one global return the same pointer, while captured
// locals bind fresh per-placement cells and never alias.
func (b *Bound) CounterShape() (delta int64, flush func(n int64), cell *value.Value, ok bool) {
	bumps := b.body.bumps
	if len(bumps) == 0 {
		return 0, nil, nil, false
	}
	delta = 1
	if len(bumps) == 1 && bumps[0].index < 0 {
		delta, cell = bumps[0].k, b.fr.slots[bumps[0].cell]
		bumps = []bump{{cell: bumps[0].cell, index: -1, k: 1}}
	}
	slots := b.fr.slots
	return delta, func(n int64) {
		for _, bp := range bumps {
			c, d := slots[bp.cell], n*bp.k
			if bp.index < 0 {
				*c = value.IntVal(c.AsInt() + d)
				continue
			}
			// The array is read from its cell at flush time: an
			// assignment may have replaced it since Bind.
			s := c.Seq()
			if ints, typed := s.Ints(); typed {
				ints[bp.index] += d
			} else {
				s.Set(bp.index, value.IntVal(s.Get(bp.index).AsInt()+d))
			}
		}
	}, cell, true
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

	cells     []CellRef
	cellSlots []slot
	cellIdx   map[string]slot
	dyn       []sem.DynAttr

	nSlots int
	scope  *localScope

	// boxed is set by every production that falls back to a Value.
	boxed bool
}

// localScope is a body-local lexical scope (if/for bodies open new ones).
type localScope struct {
	parent *localScope
	names  map[string]slot
}

func compileBody(info *sem.Info, dyn []sem.DynAttr, body []ast.Stmt, guard ast.Expr, outer *outerScope) (*Body, error) {
	c := &compiler{info: info, outer: outer, cellIdx: make(map[string]slot), dyn: dyn}
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
		b.bumps = c.classifyCounter(body)
	}
	b.Cells, b.cellSlots = c.cells, c.cellSlots
	b.NumSlots = c.nSlots
	return b, nil
}

func (c *compiler) pushScope() {
	c.scope = &localScope{parent: c.scope, names: make(map[string]slot)}
}

func (c *compiler) popScope() { c.scope = c.scope.parent }

// slot is a resolved identifier: an index into the frame's slots, which
// body-locals and cells share.
type slot int

// newSlot assigns the next frame slot.
func (c *compiler) newSlot() slot {
	c.nSlots++
	return slot(c.nSlots - 1)
}

// defineLocal assigns a fresh slot for a body-local declaration; shadowed
// names get distinct slots, matching the interpreter's nested frames.
func (c *compiler) defineLocal(name string) slot {
	sl := c.newSlot()
	c.scope.names[name] = sl
	return sl
}

// resolve resolves a name to a body-local slot or, failing that, to the
// slot of a cell, which the first use adds to the body's cells.
func (c *compiler) resolve(name string) (slot, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if sl, ok := s.names[name]; ok {
			return sl, true
		}
	}
	if ref, ok := c.outer.resolve(name); ok {
		if sl, ok := c.cellIdx[name]; ok {
			return sl, true
		}
		sl := c.newSlot()
		c.cells = append(c.cells, ref)
		c.cellSlots = append(c.cellSlots, sl)
		c.cellIdx[name] = sl
		return sl, true
	}
	return 0, false
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

// classifyCounter recognizes the pure counter body: one or more
// statements, each `x = x + k` / `x = k + x` / `x = x - k` with constant
// nonzero k, where x is a cell or an element `a[K]` of an array cell
// with an integer literal K inside the array's declared length (sem
// makes an array slot always hold that many elements). The caller
// applies it only to unguarded bodies that never box, which makes every
// target numeric; such a body declares no locals, so every target is a
// captured or global cell.
func (c *compiler) classifyCounter(body []ast.Stmt) []bump {
	bumps := make([]bump, len(body))
	for i, s := range body {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			return nil
		}
		_, e, neg := rmwOf(as)
		k, lit := litInt(e)
		if !lit || k == 0 {
			return nil
		}
		if neg {
			k = -k
		}
		bp := bump{index: -1, k: k}
		target := as.LHS
		if ix, ok := target.(*ast.IndexExpr); ok {
			t := c.info.Types[ix.X]
			idx, lit := litInt(ix.Index)
			if t == nil || t.Kind != types.Array || !lit || idx < 0 || idx >= int64(t.Len) {
				return nil
			}
			bp.index, target = idx, ix.X
		}
		sl, ok := c.resolve(target.(*ast.Ident).Name)
		if !ok {
			return nil
		}
		bp.cell = sl
		bumps[i] = bp
	}
	return bumps
}

// rmwOf matches a read-modify-write `t = t + e` / `t = t - e`, or
// `t = e + t` with e an integer literal, where t is a named slot or an
// element of a named container indexed by an integer literal or a named
// slot (see sameTarget). It returns the read of t, e and whether e is
// subtracted; rd is nil when st is no such statement.
func rmwOf(st *ast.AssignStmt) (rd, e ast.Expr, neg bool) {
	bin, ok := st.RHS.(*ast.BinaryExpr)
	switch {
	case !ok || bin.Op != token.PLUS && bin.Op != token.MINUS:
	case sameTarget(st.LHS, bin.X):
		return bin.X, bin.Y, bin.Op == token.MINUS
	case bin.Op == token.PLUS && sameTarget(st.LHS, bin.Y):
		if _, lit := litInt(bin.X); lit {
			return bin.Y, bin.X, false
		}
	}
	return nil, nil, false
}

// sameTarget reports whether a and b name the same storage in the same
// scope: one identifier, or one element `c[k]` of one named container
// with the same integer-literal or identifier index k. Both reads are
// side-effect free, so a fused read-modify-write evaluates them once.
func sameTarget(a, b ast.Expr) bool {
	switch x := a.(type) {
	case *ast.Ident:
		return identNamed(b, x.Name)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		base, named := x.X.(*ast.Ident)
		if !ok || !named || !identNamed(y.X, base.Name) {
			return false
		}
		if k, lit := litInt(x.Index); lit {
			k2, lit2 := litInt(y.Index)
			return lit2 && k == k2
		}
		id, named := x.Index.(*ast.Ident)
		return named && identNamed(y.Index, id.Name)
	}
	return false
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
