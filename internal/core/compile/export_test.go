package compile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/sem"
)

// CountedFor reports whether st lowers to the counted-loop production.
func CountedFor(info *sem.Info, st *ast.ForStmt) bool {
	_, _, ok := (&compiler{info: info}).countedShape(st)
	return ok
}

// Lowering reports how every action of a compiled program was lowered,
// one line per action in source order: "<pos> <kind> guard=<guard>".
// kind is "scalar" (the body has an unboxed lowering), "counter <k1>,<k2>,…"
// (a scalar body classified as a pure counter: the delta of each bump) or
// "boxed"; guard is
// "none", "scalar" or "boxed" for the dynamic where constraint.
func Lowering(cp *Program) []string {
	acts := make([]*ast.Action, 0, len(cp.Actions))
	for act := range cp.Actions {
		acts = append(acts, act)
	}
	sort.Slice(acts, func(i, j int) bool {
		pi, pj := acts[i].Pos(), acts[j].Pos()
		return pi.Line < pj.Line || pi.Line == pj.Line && pi.Col < pj.Col
	})
	out := make([]string, len(acts))
	for i, act := range acts {
		b := cp.Actions[act]
		guard := "none"
		switch {
		case b.guard == nil:
		case b.guardBoxed:
			guard = "boxed"
		default:
			guard = "scalar"
		}
		out[i] = fmt.Sprintf("%s %s guard=%s", act.Pos(), bodyKind(b), guard)
	}
	return out
}

func bodyKind(b *Body) string {
	switch {
	case b.boxed:
		return "boxed"
	case len(b.bumps) > 0:
		ks := make([]string, len(b.bumps))
		for i, bp := range b.bumps {
			ks[i] = fmt.Sprint(bp.k)
		}
		return "counter " + strings.Join(ks, ",")
	}
	return "scalar"
}
