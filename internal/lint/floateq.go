package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between float operands in engine code.
// Accumulated floating-point results differ in the last ulp between
// algebraically equivalent computations, so exact comparison is how
// "equivalent" engines quietly disagree; compare against an epsilon
// (math.Abs(a-b) <= eps) instead. Exempt by construction:
//
//   - comparisons against compile-time constants (sentinel checks like
//     `x == 0` and golden-constant assertions are exact),
//   - the `x != x` NaN idiom,
//   - the comparator tie-break guard `if x != y { return x < y }`,
//     which constructs a deterministic total order out of stored
//     values and must stay exact,
//   - _test.go files, where golden tests deliberately pin
//     byte-identical results with exact equality,
//   - deliberate exact ties annotated //lint:allow floateq (e.g. a
//     best-candidate scan whose `==` arm applies a deterministic
//     tie-break).
var FloatEq = &Analyzer{
	Name:          "floateq",
	Doc:           "flags exact ==/!= on float operands in engine code",
	SkipTestFiles: true,
	Level:         func(r Rules) Level { return r.FloatEq },
	Run:           runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, f := range p.Files {
		guards := tieBreakGuards(f)
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if guards[be] {
				return true
			}
			if !isFloat(p.Info.TypeOf(be.X)) && !isFloat(p.Info.TypeOf(be.Y)) {
				return true
			}
			if isConstExpr(p, be.X) || isConstExpr(p, be.Y) {
				return true
			}
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true // x != x: the NaN check idiom
			}
			p.Reportf(be.OpPos,
				"exact %s on float operands; compare with an epsilon (math.Abs(a-b) <= eps) or annotate //lint:allow floateq for an intentional exact tie",
				be.Op)
			return true
		})
	}
}

// tieBreakGuards collects the conditions of `if x != y { return x < y }`
// shaped statements (any ordering operator, either operand order).
// This is the standard way sort comparators build a total order from
// float keys: the inequality is a guard for an ordering comparison of
// the very same stored values, so it cannot introduce cross-engine
// divergence — both engines compare identical bits.
func tieBreakGuards(f *ast.File) map[*ast.BinaryExpr]bool {
	out := make(map[*ast.BinaryExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Init != nil {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.NEQ {
			return true
		}
		if len(ifs.Body.List) != 1 {
			return true
		}
		ret, ok := ifs.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		cmp, ok := ret.Results[0].(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		cx, cy := types.ExprString(cond.X), types.ExprString(cond.Y)
		rx, ry := types.ExprString(cmp.X), types.ExprString(cmp.Y)
		if (cx == rx && cy == ry) || (cx == ry && cy == rx) {
			out[cond] = true
		}
		return true
	})
	return out
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
