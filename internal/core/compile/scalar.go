package compile

// The unboxed productions. value.Value is a wide struct, and a chain of
// Value closures copies one across every closure boundary; for the
// integer arithmetic, address compares and int-keyed container accesses
// that dominate real action bodies, that copying is most of the firing
// cost. Wherever sem's static types allow, the lowering instead picks a
// production from this file, which keeps the intermediate value a bare
// int64 or bool and boxes a Value only where one is stored.
//
// The contract: a production for expression e returns AsInt() (or
// AsBool(), or String()) of the value the interpreter would produce for
// e, with identical evaluation order, side effects, runtime error
// messages and positions. An int production is further guaranteed to
// stand for an integer-shaped value (KInt or KNull), which is what makes
// the unboxed comparisons and int-keyed map accesses bit-identical to
// the boxed path: value.Equal and value.KeyOf coincide with plain int64
// semantics on such values. Every production returns nil when it cannot
// meet that bar, and the caller falls back to the boxed production.

import (
	"strconv"
	"strings"

	"repro/internal/core/ast"
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

// asIntRef is value.Value.AsInt without copying the struct in the common
// already-an-integer case.
func asIntRef(v *value.Value) int64 {
	if v.Kind == value.KInt {
		return v.Int
	}
	return v.AsInt()
}

// loadSlot resolves a slot to a pointer accessor, avoiding the Value copy
// of the boxed Ident production.
func loadSlot(sl slot) func(fr *frame) *value.Value {
	idx := sl.idx
	if sl.local {
		return func(fr *frame) *value.Value { return &fr.locals[idx] }
	}
	return func(fr *frame) *value.Value { return fr.cells[idx] }
}

// intExpr lowers e to an unboxed integer-shaped scalar, or returns nil.
func (c *compiler) intExpr(e ast.Expr) intFn {
	switch x := e.(type) {
	case *ast.IntLit:
		n := x.Val
		return func(*frame) (int64, error) { return n, nil }
	case *ast.CharLit:
		n := int64(x.Val)
		return func(*frame) (int64, error) { return n, nil }
	case *ast.NullLit:
		// NULL coerces to 0 under every integer consumer (AsInt, Equal
		// against integer-shaped values, KeyOf, AsBool).
		return func(*frame) (int64, error) { return 0, nil }
	case *ast.Ident:
		// Numeric-typed slots only: such slots always hold KInt (every
		// store goes through Convert or ZeroValue).
		t := c.info.Types[e]
		if t == nil || !t.IsNumeric() {
			return nil
		}
		sl, ok := c.resolve(x.Name)
		if !ok {
			return nil
		}
		load := loadSlot(sl)
		return func(fr *frame) (int64, error) { return asIntRef(load(fr)), nil }
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
			return asIntRef(&fr.dyn[idx]), nil
		}
	case *ast.IndexExpr:
		return c.intIndex(x)
	case *ast.CallExpr:
		return c.intSize(x)
	case *ast.UnaryExpr:
		if x.Op != token.MINUS {
			return nil
		}
		sub := c.intExpr(x.X)
		if sub == nil {
			return nil
		}
		return func(fr *frame) (int64, error) {
			n, err := sub(fr)
			if err != nil {
				return 0, err
			}
			return -n, nil
		}
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
	l := c.intExpr(x.X)
	if l == nil {
		return nil
	}
	r := c.intExpr(x.Y)
	if r == nil {
		return nil
	}
	if op == nil {
		mod := x.Op == token.PERCENT
		pos := x.P
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
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
		a, err := l(fr)
		if err != nil {
			return 0, err
		}
		b, err := r(fr)
		if err != nil {
			return 0, err
		}
		return op(a, b), nil
	}
}

// scalarContainer resolves the directly-named base of a container access
// whose elements are numeric (and, for dicts, whose key type is numeric,
// so value.KeyOf of the boxed index coincides with the unboxed int64 key).
func (c *compiler) scalarContainer(base ast.Expr) (*types.Type, func(fr *frame) *value.Value, bool) {
	id, ok := base.(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	t := c.info.Types[base]
	if t == nil || t.Elem == nil || !t.Elem.IsNumeric() {
		return nil, nil, false
	}
	if t.Kind == types.Dict && (t.Key == nil || !t.Key.IsNumeric()) {
		return nil, nil, false
	}
	sl, ok := c.resolve(id.Name)
	if !ok {
		return nil, nil, false
	}
	return t, loadSlot(sl), true
}

// intIndex lowers a container read.
func (c *compiler) intIndex(x *ast.IndexExpr) intFn {
	t, load, ok := c.scalarContainer(x.X)
	if !ok {
		return nil
	}
	idxFn := c.intExpr(x.Index)
	if idxFn == nil {
		return nil
	}
	pos := x.P
	switch t.Kind {
	case types.Dict:
		return func(fr *frame) (int64, error) {
			bv := load(fr)
			k, err := idxFn(fr)
			if err != nil {
				return 0, err
			}
			if bv.Kind != value.KDict {
				return 0, errf(pos, "value is not indexable")
			}
			if e, ok := bv.Dict.M[value.DictKey{I: k}]; ok {
				return asIntRef(&e), nil
			}
			return asIntRef(&bv.Dict.ElemZero), nil
		}
	case types.Vector:
		// Out of range yields NULL on the boxed path, which is 0 here.
		return func(fr *frame) (int64, error) {
			bv := load(fr)
			i, err := idxFn(fr)
			if err != nil {
				return 0, err
			}
			if bv.Kind != value.KVector {
				return 0, errf(pos, "value is not indexable")
			}
			if i < 0 || i >= int64(len(bv.Vec.Elems)) {
				return 0, nil
			}
			return asIntRef(&bv.Vec.Elems[i]), nil
		}
	case types.Array:
		return func(fr *frame) (int64, error) {
			bv := load(fr)
			i, err := idxFn(fr)
			if err != nil {
				return 0, err
			}
			if bv.Kind != value.KArray {
				return 0, errf(pos, "value is not indexable")
			}
			if i < 0 || i >= int64(len(bv.Arr.Elems)) {
				return 0, errArrayIndex(pos, i, len(bv.Arr.Elems))
			}
			return asIntRef(&bv.Arr.Elems[i]), nil
		}
	}
	return nil
}

// intSize lowers recv.size() on a directly-named vector or dict.
func (c *compiler) intSize(x *ast.CallExpr) intFn {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "size" || len(x.Args) != 0 {
		return nil
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[fun.X]
	if t == nil || (t.Kind != types.Vector && t.Kind != types.Dict) {
		return nil
	}
	sl, ok := c.resolve(id.Name)
	if !ok {
		return nil
	}
	load := loadSlot(sl)
	pos, name := x.P, fun.Name
	return func(fr *frame) (int64, error) {
		rv := load(fr)
		switch rv.Kind {
		case value.KVector:
			return int64(len(rv.Vec.Elems)), nil
		case value.KDict:
			return int64(rv.Dict.Len()), nil
		}
		return 0, errf(pos, "invalid method %q", name)
	}
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
			load := loadSlot(sl)
			return func(fr *frame) (bool, error) { return load(fr).AsBool(), nil }
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
			l := c.intExpr(x.X)
			if l == nil {
				return nil
			}
			r := c.intExpr(x.Y)
			if r == nil {
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
				a, err := l(fr)
				if err != nil {
					return false, err
				}
				b, err := r(fr)
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
// they stand for; the two NULL-producing shapes (a NULL literal, a vector
// read that may run out of range) are rendered explicitly.
func (c *compiler) strArg(e ast.Expr) strFn {
	switch x := e.(type) {
	case *ast.StringLit:
		s := x.Val
		return func(*frame) (string, error) { return s, nil }
	case *ast.NullLit:
		return func(*frame) (string, error) { return "NULL", nil }
	case *ast.IndexExpr:
		if t := c.info.Types[x.X]; t != nil && t.Kind == types.Vector {
			return c.strVecGet(x)
		}
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

// strVecGet renders a direct vector-element read, preserving the boxed
// path's NULL result for an out-of-range index.
func (c *compiler) strVecGet(x *ast.IndexExpr) strFn {
	t, load, ok := c.scalarContainer(x.X)
	if !ok || t.Kind != types.Vector {
		return nil
	}
	idxFn := c.intExpr(x.Index)
	if idxFn == nil {
		return nil
	}
	pos := x.P
	return func(fr *frame) (string, error) {
		bv := load(fr)
		i, err := idxFn(fr)
		if err != nil {
			return "", err
		}
		if bv.Kind != value.KVector {
			return "", errf(pos, "value is not indexable")
		}
		if i < 0 || i >= int64(len(bv.Vec.Elems)) {
			return "NULL", nil
		}
		return strconv.FormatInt(asIntRef(&bv.Vec.Elems[i]), 10), nil
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
