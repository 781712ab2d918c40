package compile

// The unboxed productions. A chain of Value closures re-dispatches on
// the kind at every closure boundary; for the integer arithmetic,
// address compares and int-keyed container accesses that dominate real
// action bodies, that is most of the firing cost. Wherever sem's static
// types allow, the lowering instead picks a production from this file,
// which keeps the intermediate value a bare int64 or bool, reads and
// writes typed container storage (a typed dict's int64 methods, []int64)
// directly, and boxes a Value only where one is stored in a slot.
//
// The contract: a production for expression e returns AsInt() (or
// AsBool(), or String()) of the value the interpreter would produce for
// e, with identical evaluation order, side effects, runtime error
// messages and positions. An int production is further guaranteed to
// stand for an integer-shaped value (KInt or KNull), which is what makes
// the unboxed comparisons and int-keyed container accesses bit-identical
// to the boxed path: value.Equal and the conversion of a key to a numeric
// key type coincide with plain int64 semantics on such values. Every
// production returns nil when it cannot meet that bar, and the caller
// falls back to the boxed production.

import (
	"strconv"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
)

// intFn evaluates an expression to its integer coercion.
type intFn func(fr *frame) (int64, error)

// boolFn evaluates an expression to its truth coercion.
type boolFn func(fr *frame) (bool, error)

// strFn renders one print() argument exactly as Value.String would.
type strFn func(fr *frame) (string, error)

// operand is an unboxed integer operand fused into the closure that
// consumes it: an integer literal or a directly-named numeric slot is
// read inline, anything else through its int production. Leaf operands
// are where most of a chain's closure calls went.
type operand struct {
	fn  intFn // nil for a literal or a slot
	n   int64 // the literal
	sl  slot
	lit bool
}

// intOperand lowers e to an operand, or reports false when e has no
// unboxed production.
func (c *compiler) intOperand(e ast.Expr) (operand, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return operand{n: x.Val, lit: true}, true
	case *ast.Ident:
		// Numeric-typed slots only: such slots always hold KInt (every
		// store goes through Convert or ZeroValue).
		if t := c.info.Types[e]; t == nil || !t.IsNumeric() {
			return operand{}, false
		}
		sl, ok := c.resolve(x.Name)
		return operand{sl: sl}, ok
	case *ast.UnaryExpr:
		if x.Op != token.MINUS {
			return operand{}, false
		}
		if o, ok := c.intOperand(x.X); ok {
			return o.negated(), true
		}
		return operand{}, false
	}
	fn := c.intExpr(e)
	return operand{fn: fn}, fn != nil
}

// eval reads the operand without a call for a literal or a slot: it
// inlines into its consumer. The closure goes through read's parameter
// because a call of a parameter is what keeps read under the inlining
// budget.
func (o *operand) eval(fr *frame) (int64, error) { return o.read(o.fn, fr) }

func (o *operand) read(fn intFn, fr *frame) (int64, error) {
	if fn != nil {
		return fn(fr)
	}
	if o.lit {
		return o.n, nil
	}
	return fr.ref(o.sl).Int(), nil
}

// negated is the operand -o; a literal folds.
func (o operand) negated() operand {
	if o.lit {
		o.n = -o.n
		return o
	}
	return operand{fn: func(fr *frame) (int64, error) {
		n, err := o.eval(fr)
		return -n, err
	}}
}

// ref returns the Value a resolved slot names in this frame.
func (fr *frame) ref(sl slot) *value.Value { return fr.slots[sl] }

// intExpr lowers e to an unboxed integer-shaped scalar, or returns nil.
func (c *compiler) intExpr(e ast.Expr) intFn {
	switch x := e.(type) {
	case *ast.IntLit, *ast.Ident, *ast.UnaryExpr:
		o, ok := c.intOperand(e)
		if !ok {
			return nil
		}
		return o.eval
	case *ast.CharLit:
		n := int64(x.Val)
		return func(*frame) (int64, error) { return n, nil }
	case *ast.NullLit:
		// NULL coerces to 0 under every integer consumer (AsInt, Equal
		// against integer-shaped values, numeric keys, AsBool).
		return func(*frame) (int64, error) { return 0, nil }
	case *ast.FieldExpr:
		// Dynamic attributes materialize as integer words (UintVal);
		// static attributes can be any kind.
		idx, key, ok := c.dynAttr(x)
		if !ok {
			return nil
		}
		pos := x.P
		return func(fr *frame) (int64, error) {
			if idx >= len(fr.dyn) {
				return 0, errNotMaterialized(pos, key)
			}
			return fr.dyn[idx].AsInt(), nil
		}
	case *ast.IndexExpr:
		return c.intIndex(x)
	case *ast.CallExpr:
		return c.intSize(x)
	case *ast.BinaryExpr:
		return c.intBinary(x)
	}
	return nil
}

// intBinary lowers the arithmetic operators, whose boxed result is always
// IntVal(f(l.AsInt(), r.AsInt())).
func (c *compiler) intBinary(x *ast.BinaryExpr) intFn {
	var op func(a, b int64) int64
	switch x.Op {
	case token.PLUS:
		op = func(a, b int64) int64 { return a + b }
	case token.MINUS:
		op = func(a, b int64) int64 { return a - b }
	case token.STAR:
		op = func(a, b int64) int64 { return a * b }
	case token.AMP:
		op = func(a, b int64) int64 { return a & b }
	case token.PIPE:
		op = func(a, b int64) int64 { return a | b }
	case token.CARET:
		op = func(a, b int64) int64 { return a ^ b }
	case token.SHL:
		op = func(a, b int64) int64 { return a << (uint64(b) & 63) }
	case token.SHR:
		op = func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }
	case token.SLASH, token.PERCENT:
		// op stays nil: division checks its divisor first.
	default:
		return nil
	}
	l, ok := c.intOperand(x.X)
	if !ok {
		return nil
	}
	r, ok := c.intOperand(x.Y)
	if !ok {
		return nil
	}
	if op == nil {
		mod := x.Op == token.PERCENT
		pos := x.P
		return func(fr *frame) (int64, error) {
			a, err := l.eval(fr)
			if err != nil {
				return 0, err
			}
			b, err := r.eval(fr)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, errf(pos, "division by zero")
			}
			if mod {
				return a % b, nil
			}
			return a / b, nil
		}
	}
	return func(fr *frame) (int64, error) {
		a, err := l.eval(fr)
		if err != nil {
			return 0, err
		}
		b, err := r.eval(fr)
		if err != nil {
			return 0, err
		}
		return op(a, b), nil
	}
}

// scalarContainer resolves the directly-named base of a container access
// whose elements are numeric (and, for dicts, whose key type is numeric,
// so the conversion of the boxed index to the key type coincides with the
// unboxed int64 key), returning the container's value kind.
func (c *compiler) scalarContainer(base ast.Expr) (value.Kind, slot, bool) {
	id, ok := base.(*ast.Ident)
	if !ok {
		return 0, 0, false
	}
	t := c.info.Types[base]
	if t == nil || t.Elem == nil || !t.Elem.IsNumeric() {
		return 0, 0, false
	}
	var kind value.Kind
	switch t.Kind {
	case types.Dict:
		if t.Key == nil || !t.Key.IsNumeric() {
			return 0, 0, false
		}
		kind = value.KDict
	case types.Vector:
		kind = value.KVector
	case types.Array:
		kind = value.KArray
	default:
		return 0, 0, false
	}
	sl, ok := c.resolve(id.Name)
	return kind, sl, ok
}

// intIndex lowers a container read. A container whose static type is
// typed holds typed storage unless a generic one of an assignable type
// was stored into its slot; that case reads through the boxed methods.
func (c *compiler) intIndex(x *ast.IndexExpr) intFn {
	kind, sl, ok := c.scalarContainer(x.X)
	if !ok {
		return nil
	}
	idx, ok := c.intOperand(x.Index)
	if !ok {
		return nil
	}
	pos := x.P
	if kind == value.KDict {
		return func(fr *frame) (int64, error) {
			d := fr.ref(sl).Dict()
			k, err := idx.eval(fr)
			if err != nil {
				return 0, err
			}
			if d == nil {
				return 0, errf(pos, "value is not indexable")
			}
			if d.Typed() {
				return d.Load(k), nil
			}
			return d.Get(value.IntVal(k)).AsInt(), nil
		}
	}
	return func(fr *frame) (int64, error) {
		bv := fr.ref(sl)
		i, err := idx.eval(fr)
		if err != nil {
			return 0, err
		}
		if ints := typedInts(bv, kind); uint64(i) < uint64(len(ints)) {
			return ints[i], nil
		}
		return seqInt(bv, kind, i, pos)
	}
}

// typedInts returns the typed storage of the vector or array (kind) in
// bv, nil when bv holds another kind or generic storage.
func typedInts(bv *value.Value, kind value.Kind) []int64 {
	if bv.Kind() != kind {
		return nil
	}
	ints, _ := bv.Seq().Ints()
	return ints
}

// seqInt reads element i of the vector or array (kind) in bv, whose
// index has been evaluated, where typedInts has no element i.
func seqInt(bv *value.Value, kind value.Kind, i int64, pos token.Pos) (int64, error) {
	if bv.Kind() != kind {
		return 0, errf(pos, "value is not indexable")
	}
	s := bv.Seq()
	if i < 0 || i >= int64(s.Len()) {
		if kind == value.KArray {
			return 0, errIndex(pos, kind, i, s.Len())
		}
		// A vector read out of range yields NULL, which is 0 here.
		return 0, nil
	}
	return s.Get(i).AsInt(), nil
}

// sizeCall resolves recv.size() on a directly-named vector or dict to
// the receiver's slot.
func (c *compiler) sizeCall(e ast.Expr) (slot, bool) {
	x, ok := e.(*ast.CallExpr)
	if !ok || len(x.Args) != 0 {
		return 0, false
	}
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "size" {
		return 0, false
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	t := c.info.Types[fun.X]
	if t == nil || (t.Kind != types.Vector && t.Kind != types.Dict) {
		return 0, false
	}
	return c.resolve(id.Name)
}

// intSize lowers recv.size() on a directly-named vector or dict.
func (c *compiler) intSize(x *ast.CallExpr) intFn {
	sl, ok := c.sizeCall(x)
	if !ok {
		return nil
	}
	pos := x.P
	return func(fr *frame) (int64, error) { return containerSize(fr.ref(sl), pos) }
}

// containerSize is .size() of the vector or dict in rv.
func containerSize(rv *value.Value, pos token.Pos) (int64, error) {
	switch rv.Kind() {
	case value.KVector:
		return int64(rv.Seq().Len()), nil
	case value.KDict:
		return int64(rv.Dict().Len()), nil
	}
	return 0, errf(pos, "invalid method %q", "size")
}

// countedFor lowers the counted loop `for (T i = a; i < e; i = i ± k)`
// with T numeric and k an integer literal to one Go loop: per iteration
// the iteration bound, e, the comparison with i's slot, the body, and
// i += k in place. i stays in its slot, so a body that assigns it acts
// as in the generic loop. A limit e of the form v.size() is read
// inline, and a leading body statement `T2 x = c[i]` on a numeric
// vector or array reads the typed storage inline; every other part
// compiles as it would in the generic loop, in the same order. The
// shape is decided before anything compiles, so a nil return leaves
// the compiler untouched.
func (c *compiler) countedFor(st *ast.ForStmt) stmtFn {
	name, k, ok := c.countedShape(st)
	if !ok {
		return nil
	}
	c.pushScope()
	start := c.compileStmt(st.Init)
	isl, _ := c.resolve(name)
	cond := st.Cond.(*ast.BinaryExpr)
	sizeSl, sized := c.sizeCall(cond.Y)
	var lim operand
	if !sized {
		var ok bool
		if lim, ok = c.intOperand(cond.Y); !ok {
			boxed := c.compileExpr(cond.Y)
			lim = operand{fn: func(fr *frame) (int64, error) {
				v, err := boxed(fr)
				return v.AsInt(), err
			}}
		}
	}
	c.pushScope()
	body := st.Body
	read, kind, csl, xsl := c.countedRead(body, name)
	fuse := read != nil
	var ipos token.Pos
	if fuse {
		body, ipos = body[1:], read.P
	}
	stmts := c.compileStmts(body)
	c.popScope()
	c.popScope()
	pos, spos := st.P, cond.Y.Pos()
	return func(fr *frame) error {
		if err := start(fr); err != nil {
			return err
		}
		// A bound frame's slot pointers never change. The unused ones
		// (slot 0) are never read.
		i, rv, bv, x := fr.ref(isl), fr.ref(sizeSl), fr.ref(csl), fr.ref(xsl)
		for iters := 0; ; iters++ {
			if iters >= interp.MaxLoopIters {
				return errf(pos, "for statement exceeded %d iterations", interp.MaxLoopIters)
			}
			var n int64
			var err error
			switch {
			case !sized:
				n, err = lim.eval(fr)
			case rv.Kind() == value.KVector:
				n = int64(rv.Seq().Len())
			default:
				n, err = containerSize(rv, spos)
			}
			if err != nil || i.Int() >= n {
				return err
			}
			if fuse {
				j := i.Int()
				if ints := typedInts(bv, kind); uint64(j) < uint64(len(ints)) {
					n = ints[j]
				} else if n, err = seqInt(bv, kind, j, ipos); err != nil {
					return err
				}
				*x = value.IntVal(n)
			}
			for _, f := range stmts {
				if err := f(fr); err != nil {
					return err
				}
			}
			*i = value.IntVal(i.Int() + k)
		}
	}
}

// countedShape reports whether st is a counted loop (see countedFor),
// returning the loop variable and its step. It only inspects the tree.
func (c *compiler) countedShape(st *ast.ForStmt) (name string, k int64, ok bool) {
	decl, ok := st.Init.(*ast.DeclStmt)
	if !ok {
		return "", 0, false
	}
	if t := c.info.DeclTypes[decl.Decl]; t == nil || !t.IsNumeric() {
		return "", 0, false
	}
	name = decl.Decl.Name
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LT || !identNamed(cond.X, name) {
		return "", 0, false
	}
	post, ok := st.Post.(*ast.AssignStmt)
	if !ok || !identNamed(post.LHS, name) {
		return "", 0, false
	}
	rd, e, neg := rmwOf(post)
	k, lit := litInt(e)
	if rd == nil || !lit {
		return "", 0, false
	}
	if neg {
		k = -k
	}
	return name, k, true
}

// countedRead matches a counted loop body's leading `T x = c[i]` with T
// numeric and c a directly-named numeric vector or array, defining x,
// and returns the element read c[i]; nil if the body starts otherwise.
// It resolves c before x, as compiling the declaration would.
func (c *compiler) countedRead(body []ast.Stmt, i string) (read *ast.IndexExpr, kind value.Kind, csl, xsl slot) {
	if len(body) == 0 {
		return nil, 0, 0, 0
	}
	d, ok := body[0].(*ast.DeclStmt)
	if !ok {
		return nil, 0, 0, 0
	}
	read, ok = d.Decl.Init.(*ast.IndexExpr)
	if t := c.info.DeclTypes[d.Decl]; !ok || t == nil || !t.IsNumeric() || !identNamed(read.Index, i) {
		return nil, 0, 0, 0
	}
	if t := c.info.Types[read.X]; t == nil || t.Kind == types.Dict {
		return nil, 0, 0, 0
	}
	if kind, csl, ok = c.scalarContainer(read.X); !ok {
		return nil, 0, 0, 0
	}
	return read, kind, csl, c.defineLocal(d.Decl.Name)
}

// boolExpr lowers e to its unboxed truth coercion, or returns nil.
func (c *compiler) boolExpr(e ast.Expr) boolFn {
	switch x := e.(type) {
	case *ast.BoolLit:
		b := x.Val
		return func(*frame) (bool, error) { return b, nil }
	case *ast.Ident:
		if t := c.info.Types[e]; t != nil && t.Kind == types.Bool {
			sl, ok := c.resolve(x.Name)
			if !ok {
				return nil
			}
			return func(fr *frame) (bool, error) { return fr.ref(sl).AsBool(), nil }
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			sub := c.boolExpr(x.X)
			if sub == nil {
				return nil
			}
			return func(fr *frame) (bool, error) {
				b, err := sub(fr)
				return !b, err
			}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			l := c.boolExpr(x.X)
			if l == nil {
				return nil
			}
			r := c.boolExpr(x.Y)
			if r == nil {
				return nil
			}
			if x.Op == token.LAND {
				return func(fr *frame) (bool, error) {
					b, err := l(fr)
					if err != nil || !b {
						return false, err
					}
					return r(fr)
				}
			}
			return func(fr *frame) (bool, error) {
				b, err := l(fr)
				if err != nil || b {
					return b, err
				}
				return r(fr)
			}
		case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			// On integer-shaped operands, value.Equal and the ordered
			// comparison both reduce to plain int64 comparison of the
			// AsInt coercions (neither side can be a string).
			l, ok := c.intOperand(x.X)
			if !ok {
				return nil
			}
			r, ok := c.intOperand(x.Y)
			if !ok {
				return nil
			}
			var cmp func(a, b int64) bool
			switch x.Op {
			case token.EQ:
				cmp = func(a, b int64) bool { return a == b }
			case token.NEQ:
				cmp = func(a, b int64) bool { return a != b }
			case token.LT:
				cmp = func(a, b int64) bool { return a < b }
			case token.LE:
				cmp = func(a, b int64) bool { return a <= b }
			case token.GT:
				cmp = func(a, b int64) bool { return a > b }
			case token.GE:
				cmp = func(a, b int64) bool { return a >= b }
			}
			return func(fr *frame) (bool, error) {
				a, err := l.eval(fr)
				if err != nil {
					return false, err
				}
				b, err := r.eval(fr)
				if err != nil {
					return false, err
				}
				return cmp(a, b), nil
			}
		}
	}
	// Any other integer-shaped scalar consumed as a condition: AsBool of
	// KInt n is n != 0, of KNull is false — both are n != 0 here.
	if ifn := c.intExpr(e); ifn != nil {
		return func(fr *frame) (bool, error) {
			n, err := ifn(fr)
			return n != 0, err
		}
	}
	return nil
}

// strArg lowers one print() argument, or returns nil. Int productions
// render via FormatInt, which matches Value.String on the KInt values
// they stand for; a NULL literal and direct container reads, which may
// yield NULL or another kind, are rendered explicitly.
func (c *compiler) strArg(e ast.Expr) strFn {
	switch x := e.(type) {
	case *ast.StringLit:
		s := x.Val
		return func(*frame) (string, error) { return s, nil }
	case *ast.NullLit:
		return func(*frame) (string, error) { return "NULL", nil }
	case *ast.IndexExpr:
		return c.strIndex(x)
	}
	ifn := c.intExpr(e)
	if ifn == nil {
		return nil
	}
	return func(fr *frame) (string, error) {
		n, err := ifn(fr)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(n, 10), nil
	}
}

// strIndex renders a direct read of a numeric container as the boxed
// path would: a vector read out of range renders NULL, and an element of
// generic storage (a container of an assignable type stored into the
// slot) renders as its own kind rather than as its integer coercion.
func (c *compiler) strIndex(x *ast.IndexExpr) strFn {
	kind, sl, ok := c.scalarContainer(x.X)
	if !ok {
		return nil
	}
	idx, ok := c.intOperand(x.Index)
	if !ok {
		return nil
	}
	pos := x.P
	return func(fr *frame) (string, error) {
		bv := fr.ref(sl)
		i, err := idx.eval(fr)
		if err != nil {
			return "", err
		}
		if bv.Kind() != kind {
			return "", errf(pos, "value is not indexable")
		}
		if kind == value.KDict {
			return bv.Dict().Get(value.IntVal(i)).String(), nil
		}
		s := bv.Seq()
		if kind == value.KArray && (i < 0 || i >= int64(s.Len())) {
			return "", errIndex(pos, kind, i, s.Len())
		}
		return s.Get(i).String(), nil
	}
}

// dynAttr resolves a dynamic attribute use to its materialized-value
// slot and its "var.attr" key.
func (c *compiler) dynAttr(x *ast.FieldExpr) (idx int, key string, ok bool) {
	if !c.info.DynamicExprs[x] {
		return 0, "", false
	}
	id, ok := x.X.(*ast.Ident)
	if !ok {
		return 0, "", false
	}
	attr := strings.ToLower(x.Name)
	idx, ok = c.dynSlot(id.Name, attr)
	return idx, id.Name + "." + attr, ok
}
