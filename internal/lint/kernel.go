package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KernelDiscipline keeps every float32 inner-product reduction inside
// internal/mat, where the canonical 4-lane reduction order is pinned by
// property tests against the SIMD kernels. A hand-rolled `acc += a*b` loop
// anywhere else accumulates in serial order — bit-different from the
// kernels — and silently forks the determinism contract the moment two
// code paths score the same vectors. Such loops must call mat.Dot /
// mat.ScoreRows (or carry a //lovo:kernel-ok reason explaining why the
// reduction is not an inner product over scored data). internal/quant,
// home of the PQ table builds and ADC scans, is exempt as well.
var KernelDiscipline = &Analyzer{
	Name:      "kerneldiscipline",
	Doc:       "flags hand-rolled float32 multiply-accumulate reduction loops outside internal/mat and internal/quant",
	Directive: "kernel-ok",
	Run:       runKernelDiscipline,
}

func runKernelDiscipline(p *Pass) {
	if p.PathIn("internal/mat", "internal/quant") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			checkReductionLoop(p, body)
			return true
		})
	}
}

// checkReductionLoop flags `acc += x*y` in a loop body where acc is
// storage declared outside the loop and x*y is a float32 product (the
// inner-product shape). Nested loops are checked at their own visit (the
// walk here does not descend into them), so the diagnostic lands on the
// innermost loop actually doing the reduction.
func checkReductionLoop(p *Pass, body *ast.BlockStmt) {
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false // inner loops and closures report themselves
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhsType := p.TypeOf(as.Lhs[0])
			if lhsType == nil || !isFloat32(lhsType) || !containsFloat32Product(p, as.Rhs[0]) {
				return true
			}
			base := baseIdent(as.Lhs[0])
			if base == nil {
				return true
			}
			obj := p.ObjectOf(base)
			if obj == nil || (obj.Pos() >= body.Pos() && obj.Pos() < body.End()) {
				return true // per-iteration local: not a cross-element reduction
			}
			p.Reportf(as.Pos(), "hand-rolled float32 multiply-accumulate reduction outside internal/mat: call mat.Dot/mat.ScoreRows to keep the canonical 4-lane reduction order")
			return true
		})
	}
}

// containsFloat32Product reports whether e contains a float32 * float32
// multiplication (possibly nested under sums or parens).
func containsFloat32Product(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			xt, yt := p.TypeOf(be.X), p.TypeOf(be.Y)
			if xt != nil && yt != nil && isFloat32(xt) && isFloat32(yt) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isFloat32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}
