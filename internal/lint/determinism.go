package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// queryPathPackages are the packages whose answers must be bit-identical
// across serial/parallel/sharded/remote execution. Determinism
// findings apply only here; elsewhere wall clocks and RNGs are fine.
var queryPathPackages = []string{
	"internal/core",
	"internal/shard",
	"internal/remote",
	"internal/ann",
	"internal/mat",
	"internal/vectordb",
}

// Determinism guards the bit-identity contract. In query-path packages it
// flags: (1) wall-clock reads (time.Now, time.Since) — durations may be
// *recorded* as metadata, but a clock value on a result path diverges
// across deployments; (2) math/rand use — only explicitly seeded
// randomness may exist on a query path, and each seeding site must say so;
// (3) range over a map whose iteration order can leak into an answer — an
// append to an outer slice or a float accumulation inside the loop —
// unless the accumulated slice is sorted (or TopK-selected, which imposes
// the canonical total order) after the loop.
var Determinism = &Analyzer{
	Name:      "determinism",
	Doc:       "flags wall-clock, math/rand and map-iteration-order dependence in query-path packages",
	Directive: "nondeterministic-ok",
	Run:       runDeterminism,
}

func runDeterminism(p *Pass) {
	if !p.PathIn(queryPathPackages...) {
		return
	}
	for _, f := range p.Files {
		// Coalesce per line: one diagnostic (and so one directive) covers a
		// line like rand.New(rand.NewPCG(...)) with several qualified uses.
		flagged := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if p.PkgFunc(n.Fun, "time", "Now") || p.PkgFunc(n.Fun, "time", "Since") {
					if line := p.Fset.Position(n.Pos()).Line; !flagged[line] {
						flagged[line] = true
						p.Reportf(n.Pos(), "wall-clock read (%s) in query-path package %s: results must not depend on time", exprString(n.Fun), p.Path)
					}
				}
			case *ast.SelectorExpr:
				if q := p.pkgQualifier(n.X); q == "math/rand" || q == "math/rand/v2" {
					// Naming a type (a *rand.Rand field, say) states where
					// randomness lives; only mentioning a func or value uses it.
					if _, isType := p.ObjectOf(n.Sel).(*types.TypeName); isType {
						return true
					}
					if line := p.Fset.Position(n.Pos()).Line; !flagged[line] {
						flagged[line] = true
						p.Reportf(n.Pos(), "math/rand use (%s.%s) in query-path package %s: only seeded, documented randomness is allowed", q, n.Sel.Name, p.Path)
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(p, n.Body)
				}
				return true
			}
			return true
		})
	}
}

// checkMapRanges flags map-range loops in fn whose iteration order can
// reach an answer.
func checkMapRanges(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range orderSinks(p, rs) {
			if sortedAfter(p, body, rs, sink.obj) {
				continue
			}
			p.Reportf(rs.Pos(), "map iteration order flows into %q via %s: sort the keys first, or sort the %s after the loop", sink.obj.Name(), sink.kind, sink.kind)
		}
		return true
	})
}

type orderSink struct {
	obj  types.Object
	kind string
}

// orderSinks finds order-sensitive accumulation inside a map-range body:
// appends to a slice declared outside the loop, and float += / -= / *=
// on storage declared outside the loop (float reduction order is not
// associative; integer counting is).
func orderSinks(p *Pass, rs *ast.RangeStmt) []orderSink {
	var sinks []orderSink
	seen := make(map[types.Object]bool)
	add := func(obj types.Object, kind string) {
		if obj == nil || seen[obj] {
			return
		}
		// Declared inside the loop body: per-iteration state, not a leak.
		if obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
			return
		}
		seen[obj] = true
		sinks = append(sinks, orderSink{obj: obj, kind: kind})
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				// Only a plain variable (or field chain) accumulates in
				// iteration order; res[k] = append(res[k], ...) is keyed
				// per element and therefore order-free.
				if base := baseIdent(n.Args[0]); base != nil {
					if _, indexed := n.Args[0].(*ast.IndexExpr); !indexed {
						add(p.ObjectOf(base), "append")
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN && n.Tok != token.MUL_ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				t := p.TypeOf(lhs)
				if t == nil || !isFloat(t) {
					continue
				}
				if base := baseIdent(lhs); base != nil {
					add(p.ObjectOf(base), "float accumulation")
				}
			}
		}
		return true
	})
	return sinks
}

// sortedAfter reports whether obj is passed to a sorting (or canonical
// top-k selection) call after the range loop within the same block tree —
// the collect-then-sort idiom that makes map iteration order harmless.
func sortedAfter(p *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortingCall(p, call) {
			return true
		}
		for _, arg := range call.Args {
			if refersTo(p, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortingCall recognizes order-imposing calls: anything from package
// sort (Slice, SliceStable, Strings, ...), Sort-named functions anywhere
// (slices.Sort*, custom sortFoo helpers), and mat.TopK, whose canonical
// (score desc, id asc) tie-breaking yields the same selection for every
// input permutation.
func isSortingCall(p *Pass, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if p.pkgQualifier(sel.X) == "sort" {
			return true
		}
	}
	name := calleeName(call)
	return strings.Contains(name, "Sort") || strings.Contains(name, "sort") || name == "TopK"
}

// calleeName returns the terminal name of a call target (Sort for
// sort.Sort and slices.Sort, TopK for mat.TopK).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// baseIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x[i].f → x).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// refersTo reports whether expression e mentions obj.
func refersTo(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func exprString(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "expr"
}
