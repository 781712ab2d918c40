package compile

// The lowering walk: every AST statement and expression becomes one
// pre-bound closure. Statements try the unboxed productions of scalar.go
// first and fall back to the boxed Value productions below, which set
// compiler.boxed. Lowering mirrors the tree-walking interpreter
// (internal/core/interp) exactly — same evaluation order, same coercions,
// same runtime error messages and positions — so that switching a tool
// between execution paths is unobservable. Where the interpreter resolves
// a name or a declared type per evaluation, lowering resolves it once and
// bakes the slot index or *types.Type into the closure.

import (
	"fmt"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
	"repro/internal/isa"
)

func errf(pos token.Pos, format string, args ...any) error {
	return &interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// errIndex reports an out-of-range store into a vector or array, or an
// out-of-range array read.
func errIndex(pos token.Pos, kind value.Kind, i int64, n int) error {
	noun := "vector"
	if kind == value.KArray {
		noun = "array"
	}
	return errf(pos, "%s index %d out of range [0,%d)", noun, i, n)
}

func errNotMaterialized(pos token.Pos, key string) error {
	return errf(pos, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
}

func (c *compiler) compileStmts(stmts []ast.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, c.compileStmt(s))
	}
	return out
}

// runStmts executes a compiled statement list, stopping at the first error.
func runStmts(fr *frame, stmts []stmtFn) error {
	for _, f := range stmts {
		if err := f(fr); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) compileStmt(s ast.Stmt) stmtFn {
	switch st := s.(type) {
	case *ast.DeclStmt:
		return c.compileDecl(st.Decl)
	case *ast.AssignStmt:
		return c.compileAssign(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "print" {
				return c.compilePrint(call)
			}
		}
		x := c.compileExpr(st.X)
		return func(fr *frame) error {
			_, err := x(fr)
			return err
		}
	case *ast.IfStmt:
		cond := c.compileCond(st.Cond)
		c.pushScope()
		then := c.compileStmts(st.Then)
		c.popScope()
		c.pushScope()
		els := c.compileStmts(st.Else)
		c.popScope()
		return func(fr *frame) error {
			ok, err := cond(fr)
			if err != nil {
				return err
			}
			if ok {
				return runStmts(fr, then)
			}
			return runStmts(fr, els)
		}
	case *ast.ForStmt:
		if f := c.countedFor(st); f != nil {
			return f
		}
		// The for header lives in its own scope; the body opens another
		// one per iteration (re-declarations re-initialize their slots).
		c.pushScope()
		var init stmtFn
		if st.Init != nil {
			init = c.compileStmt(st.Init)
		}
		var cond boolFn
		if st.Cond != nil {
			cond = c.compileCond(st.Cond)
		}
		c.pushScope()
		body := c.compileStmts(st.Body)
		c.popScope()
		var post stmtFn
		if st.Post != nil {
			post = c.compileStmt(st.Post)
		}
		c.popScope()
		pos := st.P
		return func(fr *frame) error {
			if init != nil {
				if err := init(fr); err != nil {
					return err
				}
			}
			for iters := 0; ; iters++ {
				if iters >= interp.MaxLoopIters {
					return errf(pos, "for statement exceeded %d iterations", interp.MaxLoopIters)
				}
				if cond != nil {
					ok, err := cond(fr)
					if err != nil || !ok {
						return err
					}
				}
				if err := runStmts(fr, body); err != nil {
					return err
				}
				if post != nil {
					if err := post(fr); err != nil {
						return err
					}
				}
			}
		}
	}
	c.boxed = true
	pos := s.Pos()
	return func(*frame) error { return errf(pos, "invalid statement") }
}

// compileCond lowers a condition to its truth coercion.
func (c *compiler) compileCond(e ast.Expr) boolFn {
	if b := c.boolExpr(e); b != nil {
		return b
	}
	x := c.compileExpr(e)
	return func(fr *frame) (bool, error) {
		v, err := x(fr)
		return v.AsBool(), err
	}
}

func (c *compiler) compileDecl(d *ast.VarDecl) stmtFn {
	t := c.info.DeclTypes[d]
	if t == nil {
		c.boxed = true
		pos, name := d.P, d.Name
		return func(*frame) error {
			return errf(pos, "internal: declaration %s has no type", name)
		}
	}
	if d.Init == nil {
		idx := c.defineLocal(d.Name)
		if t.IsNumeric() {
			return func(fr *frame) error {
				*fr.slots[idx] = value.IntVal(0)
				return nil
			}
		}
		c.boxed = true
		return func(fr *frame) error {
			*fr.slots[idx] = interp.ZeroValue(t)
			return nil
		}
	}
	// The initializer is compiled before the name is defined: a
	// declaration cannot reference itself, it sees the outer binding.
	if t.IsNumeric() {
		if init, ok := c.intOperand(d.Init); ok {
			idx := c.defineLocal(d.Name)
			return func(fr *frame) error {
				n, err := init.eval(fr)
				if err != nil {
					return err
				}
				*fr.slots[idx] = value.IntVal(n)
				return nil
			}
		}
	}
	initFn := c.compileExpr(d.Init)
	idx := c.defineLocal(d.Name)
	return func(fr *frame) error {
		iv, err := initFn(fr)
		if err != nil {
			return err
		}
		*fr.slots[idx] = interp.Convert(iv, t)
		return nil
	}
}

func (c *compiler) compileAssign(st *ast.AssignStmt) stmtFn {
	if f := c.scalarAssign(st); f != nil {
		return f
	}
	// The RHS evaluates before the target resolves, as in the interpreter.
	rhs := c.compileExpr(st.RHS)
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		t := c.info.Types[st.LHS]
		sl, ok := c.resolve(lhs.Name)
		if !ok {
			pos, name := lhs.P, lhs.Name
			return func(fr *frame) error {
				if _, err := rhs(fr); err != nil {
					return err
				}
				return errf(pos, "undefined: %s", name)
			}
		}
		if t == nil {
			return func(fr *frame) error {
				v, err := rhs(fr)
				if err != nil {
					return err
				}
				*fr.ref(sl) = v
				return nil
			}
		}
		return func(fr *frame) error {
			v, err := rhs(fr)
			if err != nil {
				return err
			}
			*fr.ref(sl) = interp.Convert(v, t)
			return nil
		}
	case *ast.IndexExpr:
		base := c.compileExpr(lhs.X)
		index := c.compileExpr(lhs.Index)
		keyT, elemT := c.keyTypeOf(lhs.X), c.elemTypeOf(lhs.X)
		pos := lhs.P
		return func(fr *frame) error {
			rv, err := rhs(fr)
			if err != nil {
				return err
			}
			bv, err := base(fr)
			if err != nil {
				return err
			}
			iv, err := index(fr)
			if err != nil {
				return err
			}
			switch bv.Kind() {
			case value.KDict:
				bv.Dict().Set(interp.Convert(iv, keyT), interp.Convert(rv, elemT))
				return nil
			case value.KArray, value.KVector:
				s := bv.Seq()
				i := iv.AsInt()
				if i < 0 || i >= int64(s.Len()) {
					return errIndex(pos, bv.Kind(), i, s.Len())
				}
				s.Set(i, interp.Convert(rv, elemT))
				return nil
			}
			return errf(pos, "value is not indexable")
		}
	}
	pos := st.P
	return func(fr *frame) error {
		if _, err := rhs(fr); err != nil {
			return err
		}
		return errf(pos, "invalid assignment target")
	}
}

// scalarAssign lowers a numeric store whose RHS (and, for a container
// element, index) has an unboxed production, or returns nil. The store
// writes the already-coerced int64 straight into the slot or the typed
// container storage: Convert to a numeric type is IntVal of AsInt.
//
// A read-modify-write `t = t ± e` (see rmwOf) is fused into one in-place
// update that evaluates only e — on a typed dict one AddTo, at most a
// single hash. Reading t is side-effect free and e has no side effects
// either, so the fused form is unobservable except through errors, which
// keep the unfused order: the read's (at rd), then e's, then the store's.
func (c *compiler) scalarAssign(st *ast.AssignStmt) stmtFn {
	rd, e, neg := rmwOf(st)
	rmw := rd != nil
	if !rmw {
		e = st.RHS
	}
	rhs, ok := c.intOperand(e)
	if !ok {
		return nil
	}
	if neg {
		rhs = rhs.negated()
	}
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		t := c.info.Types[st.LHS]
		if t == nil || !t.IsNumeric() {
			return nil
		}
		sl, ok := c.resolve(lhs.Name)
		if !ok {
			return nil
		}
		return func(fr *frame) error {
			n, err := rhs.eval(fr)
			if err != nil {
				return err
			}
			p := fr.ref(sl)
			if rmw {
				n += p.Int()
			}
			*p = value.IntVal(n)
			return nil
		}
	case *ast.IndexExpr:
		kind, sl, ok := c.scalarContainer(lhs.X)
		if !ok {
			return nil
		}
		index, ok := c.intOperand(lhs.Index)
		if !ok {
			return nil
		}
		// Evaluation order as on the boxed path: RHS, base, index; a
		// fused read-modify-write evaluates e after the read's checks.
		rpos, wpos := lhs.P, lhs.P
		if rmw {
			rpos = rd.Pos()
		}
		if kind == value.KDict {
			return func(fr *frame) (err error) {
				var n int64
				if !rmw {
					if n, err = rhs.eval(fr); err != nil {
						return err
					}
				}
				d := fr.ref(sl).Dict()
				k, err := index.eval(fr)
				if err != nil {
					return err
				}
				if d == nil {
					return errf(rpos, "value is not indexable")
				}
				if rmw {
					if n, err = rhs.eval(fr); err != nil {
						return err
					}
				}
				switch typed := d.Typed(); {
				case typed && rmw:
					d.AddTo(k, n)
				case typed:
					d.Store(k, n)
				case rmw:
					d.Set(value.IntVal(k), value.IntVal(d.Get(value.IntVal(k)).AsInt()+n))
				default:
					d.Set(value.IntVal(k), value.IntVal(n))
				}
				return nil
			}
		}
		return func(fr *frame) (err error) {
			var n int64
			if !rmw {
				if n, err = rhs.eval(fr); err != nil {
					return err
				}
			}
			bv := fr.ref(sl)
			i, err := index.eval(fr)
			if err != nil {
				return err
			}
			if bv.Kind() != kind {
				return errf(rpos, "value is not indexable")
			}
			s := bv.Seq()
			inRange := i >= 0 && i < int64(s.Len())
			if rmw {
				// A vector read out of range yields 0; only the store fails.
				if !inRange && kind == value.KArray {
					return errIndex(rpos, kind, i, s.Len())
				}
				if n, err = rhs.eval(fr); err != nil {
					return err
				}
			}
			ints, typed := s.Ints()
			switch {
			case !inRange:
				return errIndex(wpos, kind, i, s.Len())
			case typed && rmw:
				ints[i] += n
			case typed:
				ints[i] = n
			case rmw:
				s.Set(i, value.IntVal(s.Get(i).AsInt()+n))
			default:
				s.Set(i, value.IntVal(n))
			}
			return nil
		}
	}
	return nil
}

// compilePrint lowers print(args...). Each argument takes its unboxed
// rendering when it has one and Value.String of the boxed value
// otherwise. The line is assembled in the frame's buffer, never in one
// captured by the closure, so bindings of one body may print
// concurrently.
func (c *compiler) compilePrint(x *ast.CallExpr) stmtFn {
	args := make([]strFn, len(x.Args))
	for i, a := range x.Args {
		if args[i] = c.strArg(a); args[i] == nil {
			v := c.compileExpr(a)
			args[i] = func(fr *frame) (string, error) {
				bv, err := v(fr)
				return bv.String(), err
			}
		}
	}
	return func(fr *frame) error {
		// A print nested in an argument gets a buffer of its own.
		line := fr.line[:0]
		fr.line = nil
		for i, a := range args {
			s, err := a(fr)
			if err != nil {
				return err
			}
			if i > 0 {
				line = append(line, ' ')
			}
			line = append(line, s...)
		}
		line = append(line, '\n')
		fr.out.Write(line)
		fr.line = line
		return nil
	}
}

func (c *compiler) elemTypeOf(base ast.Expr) *types.Type {
	if t := c.info.Types[base]; t != nil && t.Elem != nil {
		return t.Elem
	}
	return types.Basic(types.Int)
}

// keyTypeOf is the declared key type of a dict expression, which keys
// convert to as elements convert to elemTypeOf.
func (c *compiler) keyTypeOf(base ast.Expr) *types.Type {
	if t := c.info.Types[base]; t != nil && t.Key != nil {
		return t.Key
	}
	return types.Basic(types.Int)
}

func constFn(v value.Value) exprFn {
	return func(*frame) (value.Value, error) { return v, nil }
}

func errFn(pos token.Pos, format string, args ...any) exprFn {
	err := errf(pos, format, args...)
	return func(*frame) (value.Value, error) { return value.Null, err }
}

// compileExpr lowers e to the boxed Value production. Reaching it at all
// means the body boxes.
func (c *compiler) compileExpr(e ast.Expr) exprFn {
	c.boxed = true
	switch x := e.(type) {
	case *ast.IntLit:
		return constFn(value.IntVal(x.Val))
	case *ast.StringLit:
		return constFn(value.StrVal(x.Val))
	case *ast.CharLit:
		return constFn(value.IntVal(int64(x.Val)))
	case *ast.BoolLit:
		return constFn(value.BoolVal(x.Val))
	case *ast.NullLit:
		return constFn(value.Null)
	case *ast.OpcodeLit:
		op, ok := interp.OpcodeFromName(x.Name)
		if !ok {
			return errFn(x.P, "unknown opcode %s", x.Name)
		}
		return constFn(value.OpcodeVal(op))
	case *ast.Ident:
		sl, ok := c.resolve(x.Name)
		if !ok {
			return errFn(x.P, "undefined: %s", x.Name)
		}
		return func(fr *frame) (value.Value, error) { return *fr.ref(sl), nil }
	case *ast.FieldExpr:
		return c.compileField(x)
	case *ast.IndexExpr:
		base := c.compileExpr(x.X)
		index := c.compileExpr(x.Index)
		keyT := c.keyTypeOf(x.X)
		pos := x.P
		return func(fr *frame) (value.Value, error) {
			bv, err := base(fr)
			if err != nil {
				return value.Null, err
			}
			iv, err := index(fr)
			if err != nil {
				return value.Null, err
			}
			switch bv.Kind() {
			case value.KDict:
				return bv.Dict().Get(interp.Convert(iv, keyT)), nil
			case value.KVector:
				return bv.Seq().Get(iv.AsInt()), nil
			case value.KArray:
				s := bv.Seq()
				i := iv.AsInt()
				if i < 0 || i >= int64(s.Len()) {
					return value.Null, errIndex(pos, value.KArray, i, s.Len())
				}
				return s.Get(i), nil
			}
			return value.Null, errf(pos, "value is not indexable")
		}
	case *ast.CallExpr:
		return c.compileCall(x)
	case *ast.IsTypeExpr:
		sub := c.compileExpr(x.X)
		var want isa.OperandKind
		switch x.OpType {
		case token.KMEM:
			want = isa.KindMem
		case token.KREG:
			want = isa.KindReg
		case token.KCONST:
			want = isa.KindImm
		}
		pos := x.P
		return func(fr *frame) (value.Value, error) {
			v, err := sub(fr)
			if err != nil {
				return value.Null, err
			}
			if v.Kind() != value.KOperand {
				return value.Null, errf(pos, "IsType requires an operand")
			}
			return value.BoolVal(v.Operand().Kind == want), nil
		}
	case *ast.UnaryExpr:
		sub := c.compileExpr(x.X)
		switch x.Op {
		case token.NOT:
			return func(fr *frame) (value.Value, error) {
				v, err := sub(fr)
				if err != nil {
					return value.Null, err
				}
				return value.BoolVal(!v.AsBool()), nil
			}
		case token.MINUS:
			return func(fr *frame) (value.Value, error) {
				v, err := sub(fr)
				if err != nil {
					return value.Null, err
				}
				return value.IntVal(-v.AsInt()), nil
			}
		}
		pos := x.P
		return func(fr *frame) (value.Value, error) {
			if _, err := sub(fr); err != nil {
				return value.Null, err
			}
			return value.Null, errf(pos, "invalid unary operator")
		}
	case *ast.BinaryExpr:
		return c.compileBinary(x)
	}
	return errFn(e.Pos(), "invalid expression")
}

func (c *compiler) compileField(x *ast.FieldExpr) exprFn {
	if c.info.DynamicExprs[x] {
		if _, ok := x.X.(*ast.Ident); !ok {
			return errFn(x.P, "internal: dynamic attribute on non-identifier")
		}
		idx, key, ok := c.dynAttr(x)
		if !ok {
			// No slot: the body has no probe context for this attribute
			// (an init/exit block, or a mismatched CFE variable).
			err := errNotMaterialized(x.P, key)
			return func(*frame) (value.Value, error) { return value.Null, err }
		}
		pos := x.P
		return func(fr *frame) (value.Value, error) {
			if idx >= len(fr.dyn) {
				return value.Null, errNotMaterialized(pos, key)
			}
			return fr.dyn[idx], nil
		}
	}
	base := c.compileExpr(x.X)
	pos, name := x.P, x.Name
	return func(fr *frame) (value.Value, error) {
		bv, err := base(fr)
		if err != nil {
			return value.Null, err
		}
		if bv.Kind() != value.KCFE {
			return value.Null, errf(pos, "value has no attributes")
		}
		return interp.StaticAttr(bv.CFE(), name)
	}
}

func (c *compiler) compileCall(x *ast.CallExpr) exprFn {
	switch fun := x.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "print":
			p := c.compilePrint(x)
			return func(fr *frame) (value.Value, error) { return value.Null, p(fr) }
		case "writeToFile":
			file := c.compileExpr(x.Args[0])
			val := c.compileExpr(x.Args[1])
			pos := x.P
			return func(fr *frame) (value.Value, error) {
				fv, err := file(fr)
				if err != nil {
					return value.Null, err
				}
				vv, err := val(fr)
				if err != nil {
					return value.Null, err
				}
				if fv.Kind() != value.KFile {
					return value.Null, errf(pos, "writeToFile requires a file")
				}
				fv.File().WriteLine(vv.String())
				return value.Value{}, nil
			}
		}
		return errFn(x.P, "unknown function %q", fun.Name)
	case *ast.FieldExpr:
		return c.compileMethod(x, fun)
	}
	return errFn(x.P, "invalid call")
}

// compileMethod lowers recv.method(args). The method name is static, so
// each name gets its own closure; the receiver's kind stays a runtime
// dispatch, as in the interpreter.
func (c *compiler) compileMethod(x *ast.CallExpr, fun *ast.FieldExpr) exprFn {
	recv := c.compileExpr(fun.X)
	pos, name := x.P, fun.Name
	var arg0 exprFn
	if len(x.Args) > 0 {
		arg0 = c.compileExpr(x.Args[0])
	}
	keyT, elemT := c.keyTypeOf(fun.X), c.elemTypeOf(fun.X)
	switch name {
	case "add":
		return func(fr *frame) (value.Value, error) {
			rv, err := recv(fr)
			if err != nil {
				return value.Null, err
			}
			if rv.Kind() != value.KVector {
				return value.Null, errf(pos, "invalid method %q", name)
			}
			v, err := arg0(fr)
			if err != nil {
				return value.Null, err
			}
			rv.Seq().Add(interp.Convert(v, elemT))
			return value.Value{}, nil
		}
	case "has":
		return func(fr *frame) (value.Value, error) {
			rv, err := recv(fr)
			if err != nil {
				return value.Null, err
			}
			switch rv.Kind() {
			case value.KVector:
				v, err := arg0(fr)
				if err != nil {
					return value.Null, err
				}
				return value.BoolVal(rv.Seq().Has(interp.Convert(v, elemT))), nil
			case value.KDict:
				v, err := arg0(fr)
				if err != nil {
					return value.Null, err
				}
				return value.BoolVal(rv.Dict().Has(interp.Convert(v, keyT))), nil
			}
			return value.Null, errf(pos, "invalid method %q", name)
		}
	case "size":
		return func(fr *frame) (value.Value, error) {
			rv, err := recv(fr)
			if err != nil {
				return value.Null, err
			}
			switch rv.Kind() {
			case value.KVector:
				return value.IntVal(int64(rv.Seq().Len())), nil
			case value.KDict:
				return value.IntVal(int64(rv.Dict().Len())), nil
			}
			return value.Null, errf(pos, "invalid method %q", name)
		}
	case "getline":
		return func(fr *frame) (value.Value, error) {
			rv, err := recv(fr)
			if err != nil {
				return value.Null, err
			}
			if rv.Kind() != value.KFile {
				return value.Null, errf(pos, "invalid method %q", name)
			}
			return rv.File().GetLine(), nil
		}
	}
	return func(fr *frame) (value.Value, error) {
		if _, err := recv(fr); err != nil {
			return value.Null, err
		}
		return value.Null, errf(pos, "invalid method %q", name)
	}
}

func (c *compiler) compileBinary(x *ast.BinaryExpr) exprFn {
	// Arithmetic results are IntVal(f(l.AsInt(), r.AsInt())) by
	// definition, so when the whole subtree has an unboxed production the
	// boxed consumer just boxes the final int64 (one Value instead of one
	// per closure boundary).
	if ifn := c.intBinary(x); ifn != nil {
		return func(fr *frame) (value.Value, error) {
			n, err := ifn(fr)
			if err != nil {
				return value.Null, err
			}
			return value.IntVal(n), nil
		}
	}
	l := c.compileExpr(x.X)
	// Short-circuit logical operators compile the right operand but only
	// evaluate it when the left doesn't decide.
	if x.Op == token.LAND || x.Op == token.LOR {
		r := c.compileExpr(x.Y)
		if x.Op == token.LAND {
			return func(fr *frame) (value.Value, error) {
				lv, err := l(fr)
				if err != nil {
					return value.Null, err
				}
				if !lv.AsBool() {
					return value.BoolVal(false), nil
				}
				rv, err := r(fr)
				if err != nil {
					return value.Null, err
				}
				return value.BoolVal(rv.AsBool()), nil
			}
		}
		return func(fr *frame) (value.Value, error) {
			lv, err := l(fr)
			if err != nil {
				return value.Null, err
			}
			if lv.AsBool() {
				return value.BoolVal(true), nil
			}
			rv, err := r(fr)
			if err != nil {
				return value.Null, err
			}
			return value.BoolVal(rv.AsBool()), nil
		}
	}
	r := c.compileExpr(x.Y)
	pos := x.P
	switch x.Op {
	case token.EQ:
		return func(fr *frame) (value.Value, error) {
			lv, rv, err := evalPair(fr, l, r)
			if err != nil {
				return value.Null, err
			}
			return value.BoolVal(value.Equal(lv, rv)), nil
		}
	case token.NEQ:
		return func(fr *frame) (value.Value, error) {
			lv, rv, err := evalPair(fr, l, r)
			if err != nil {
				return value.Null, err
			}
			return value.BoolVal(!value.Equal(lv, rv)), nil
		}
	case token.LT, token.LE, token.GT, token.GE:
		op := x.Op
		return func(fr *frame) (value.Value, error) {
			lv, rv, err := evalPair(fr, l, r)
			if err != nil {
				return value.Null, err
			}
			if lv.Kind() == value.KString && rv.Kind() == value.KString {
				return value.BoolVal(orderedCmp(op, strings.Compare(lv.Str(), rv.Str()))), nil
			}
			a, b := lv.AsInt(), rv.AsInt()
			switch {
			case a < b:
				return value.BoolVal(orderedCmp(op, -1)), nil
			case a > b:
				return value.BoolVal(orderedCmp(op, 1)), nil
			default:
				return value.BoolVal(orderedCmp(op, 0)), nil
			}
		}
	case token.PLUS:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a + b) })
	case token.MINUS:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a - b) })
	case token.STAR:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a * b) })
	case token.AMP:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a & b) })
	case token.PIPE:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a | b) })
	case token.CARET:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a ^ b) })
	case token.SHL:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(a << (uint64(b) & 63)) })
	case token.SHR:
		return intBinOp(l, r, func(a, b int64) value.Value { return value.IntVal(int64(uint64(a) >> (uint64(b) & 63))) })
	case token.SLASH:
		return func(fr *frame) (value.Value, error) {
			lv, rv, err := evalPair(fr, l, r)
			if err != nil {
				return value.Null, err
			}
			a, b := lv.AsInt(), rv.AsInt()
			if b == 0 {
				return value.Null, errf(pos, "division by zero")
			}
			return value.IntVal(a / b), nil
		}
	case token.PERCENT:
		return func(fr *frame) (value.Value, error) {
			lv, rv, err := evalPair(fr, l, r)
			if err != nil {
				return value.Null, err
			}
			a, b := lv.AsInt(), rv.AsInt()
			if b == 0 {
				return value.Null, errf(pos, "division by zero")
			}
			return value.IntVal(a % b), nil
		}
	}
	return func(fr *frame) (value.Value, error) {
		if _, _, err := evalPair(fr, l, r); err != nil {
			return value.Null, err
		}
		return value.Null, errf(pos, "invalid operator")
	}
}

func evalPair(fr *frame, l, r exprFn) (value.Value, value.Value, error) {
	lv, err := l(fr)
	if err != nil {
		return value.Null, value.Null, err
	}
	rv, err := r(fr)
	if err != nil {
		return value.Null, value.Null, err
	}
	return lv, rv, nil
}

func intBinOp(l, r exprFn, op func(a, b int64) value.Value) exprFn {
	return func(fr *frame) (value.Value, error) {
		lv, rv, err := evalPair(fr, l, r)
		if err != nil {
			return value.Null, err
		}
		return op(lv.AsInt(), rv.AsInt()), nil
	}
}

func orderedCmp(op token.Kind, cmp int) bool {
	switch op {
	case token.LT:
		return cmp < 0
	case token.LE:
		return cmp <= 0
	case token.GT:
		return cmp > 0
	case token.GE:
		return cmp >= 0
	}
	return false
}
