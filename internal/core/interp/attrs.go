package interp

import (
	"fmt"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/value"
	"repro/internal/isa"
)

// StaticAttr computes a static control-flow-element attribute from the
// recovered CFG structures. Dynamic attributes never reach here: semantic
// analysis routes them through the probe's materialized values.
func StaticAttr(ref *value.CFERef, name string) (value.Value, error) {
	name = strings.ToLower(name)
	bad := func() (value.Value, error) {
		return value.Null, fmt.Errorf("cinnamon: %s has no static attribute %q", ref, name)
	}
	switch ref.Kind {
	case ast.Inst:
		in := ref.Inst
		switch name {
		case "opcode":
			return value.OpcodeVal(in.Op), nil
		case "addr", "id":
			return value.UintVal(in.Addr), nil
		case "size":
			return value.IntVal(int64(in.Size)), nil
		case "nextaddr":
			return value.UintVal(in.Next()), nil
		case "numops":
			return value.IntVal(int64(in.NumOps())), nil
		case "op1":
			return operand(in, 0), nil
		case "op2":
			return operand(in, 1), nil
		case "op3":
			return operand(in, 2), nil
		case "trgname":
			if tgt, ok := in.IsDirectTarget(); ok && in.Op == isa.Call {
				return value.StrVal(ref.Prog.Obj.NameAt(tgt)), nil
			}
			return value.StrVal(""), nil
		}
		return bad()
	case ast.BasicBlock:
		b := ref.Block
		switch name {
		case "id":
			return value.IntVal(int64(b.ID)), nil
		case "startaddr":
			return value.UintVal(b.Start), nil
		case "endaddr":
			return value.UintVal(b.End), nil
		case "size", "ninsts":
			return value.IntVal(int64(len(b.Insts))), nil
		}
		return bad()
	case ast.Func:
		f := ref.Func
		switch name {
		case "id":
			return value.IntVal(int64(f.ID)), nil
		case "name":
			return value.StrVal(f.Name), nil
		case "startaddr":
			return value.UintVal(f.Entry), nil
		case "endaddr":
			return value.UintVal(f.End), nil
		case "ninsts":
			return value.IntVal(int64(f.NumInsts())), nil
		case "nblocks":
			return value.IntVal(int64(len(f.Blocks))), nil
		case "nloops":
			return value.IntVal(int64(len(f.Loops))), nil
		}
		return bad()
	case ast.Loop:
		l := ref.Loop
		switch name {
		case "id":
			return value.IntVal(int64(l.ID)), nil
		case "startaddr":
			return value.UintVal(l.Header.Start), nil
		case "depth":
			return value.IntVal(int64(l.Depth)), nil
		case "nblocks":
			return value.IntVal(int64(len(l.Blocks))), nil
		}
		return bad()
	case ast.Module:
		m := ref.Module
		switch name {
		case "id":
			return value.IntVal(int64(m.ID)), nil
		case "name":
			return value.StrVal(m.Name()), nil
		case "nfuncs":
			return value.IntVal(int64(len(m.Funcs))), nil
		case "isexecutable":
			return value.BoolVal(m.ID == 0), nil
		}
		return bad()
	}
	return bad()
}

// operand returns a handle on operand n of in, pointing into in.Ops.
func operand(in *isa.Inst, n int) value.Value {
	if n < len(in.Ops) {
		return value.OperandVal(&in.Ops[n])
	}
	return value.OperandVal(nil)
}
