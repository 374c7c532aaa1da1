// Package lint is the repo's static-analysis spine: a small analyzer
// framework (stdlib go/ast + go/types only — the environment bakes in no
// golang.org/x/tools) plus four analyzers that turn the repo's load-bearing
// runtime invariants into compile-time properties of the source:
//
//   - determinism: query-path packages must not let map iteration order,
//     math/rand, or the wall clock flow into answers (the bit-identity
//     contract: sharded ≡ remote ≡ single-system).
//   - codecsafety: internal/remote must never size an allocation from a
//     wire-decoded value that hasn't passed the sticky decoder's bound
//     check, and every op* handler must settle the sticky error.
//   - kerneldiscipline: float32 inner-product reductions live in
//     internal/mat only, where the canonical 4-lane order is pinned.
//   - ctxflow: library code must thread the caller's context.Context,
//     never mint context.Background() mid-path (it drops the trace).
//
// Intentional violations carry a //lovo:<kind> <reason> directive on the
// flagged line (or the line above). A directive with no reason is itself a
// diagnostic — suppressions are audited, not free — and a directive that
// suppresses nothing is reported as stale, so deleting a load-bearing
// directive or the code it excuses always changes lovocheck's verdict.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one source-level invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// Directive is the //lovo:<Directive> kind that suppresses this
	// analyzer's findings at a site.
	Directive string
	Run       func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Path is the package's import path — analyzers scope themselves by
	// it (e.g. determinism applies only to query-path packages).
	Path string
	Pkg  *types.Package
	Info *types.Info

	diags      []Diagnostic
	directives []*directive
}

// directive is one parsed //lovo:<kind> <reason> comment.
type directive struct {
	kind   string
	reason string
	pos    token.Pos
	line   int
	file   string
	used   bool
}

// DirectivePrefix introduces a suppression comment: //lovo:<kind> <reason>.
const DirectivePrefix = "//lovo:"

// directiveKinds is the closed set of suppression kinds; an unknown kind is
// a typo that would silently suppress nothing, so the runner reports it.
var directiveKinds = map[string]bool{
	"nondeterministic-ok": true,
	"codec-ok":            true,
	"kernel-ok":           true,
	"ctx-ok":              true,
}

// parseDirectives scans a file's comments for //lovo: directives.
func parseDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, DirectivePrefix)
			kind, reason, _ := strings.Cut(rest, " ")
			posn := fset.Position(c.Pos())
			out = append(out, &directive{
				kind:   kind,
				reason: strings.TrimSpace(reason),
				pos:    c.Pos(),
				line:   posn.Line,
				file:   posn.Filename,
			})
		}
	}
	return out
}

// Reportf records a finding unless a matching directive suppresses it: the
// analyzer's kind on the finding's line or the line immediately above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.kind != p.Analyzer.Directive || d.file != posn.Filename {
			continue
		}
		if d.line == posn.Line || d.line == posn.Line-1 {
			d.used = true
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is missing
// (the lenient loader swallows resolution errors for unavailable imports).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// PkgFunc reports whether e is a selector naming function name from the
// package imported as path (e.g. time.Now, context.Background). Resolution
// rides on the file's import declarations, so it works even when the
// imported package body couldn't be loaded.
func (p *Pass) PkgFunc(e ast.Expr, path, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return p.isPkgName(sel.X, path)
}

func (p *Pass) isPkgName(e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// pkgQualifier returns the import path behind a selector qualifier, or "".
func (p *Pass) pkgQualifier(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// PathIn reports whether the pass's package path matches any of the given
// path fragments ("internal/core" matches "repro/internal/core" and its
// subpackages).
func (p *Pass) PathIn(fragments ...string) bool {
	for _, f := range fragments {
		if p.Path == f || strings.Contains(p.Path, f+"/") || strings.HasSuffix(p.Path, f) {
			return true
		}
	}
	return false
}

// Run applies one analyzer to one loaded package and returns its findings,
// including directive hygiene: unknown kinds, missing reasons, and stale
// (nothing-suppressed) directives of this analyzer's kind. Hygiene for a
// kind is owned by its analyzer so each problem is reported exactly once
// when the full suite runs.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Path:     pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	for _, f := range pkg.Files {
		pass.directives = append(pass.directives, parseDirectives(pkg.Fset, f)...)
	}
	a.Run(pass)
	for _, d := range pass.directives {
		if d.kind != a.Directive {
			continue
		}
		if d.reason == "" {
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("%s%s directive without a reason: every suppression must say why", DirectivePrefix, d.kind),
			})
		} else if !d.used {
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("stale %s%s directive: it suppresses nothing here", DirectivePrefix, d.kind),
			})
		}
	}
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags
}

// RunAll applies every analyzer in the suite plus the directive-kind check.
func RunAll(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range All() {
		out = append(out, Run(a, pkg)...)
	}
	out = append(out, checkDirectiveKinds(pkg)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// checkDirectiveKinds flags //lovo: comments whose kind no analyzer owns —
// a typo'd directive must fail loudly, not silently suppress nothing.
func checkDirectiveKinds(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, d := range parseDirectives(pkg.Fset, f) {
			if !directiveKinds[d.kind] {
				out = append(out, Diagnostic{
					Pos:      d.pos,
					Analyzer: "directive",
					Message:  fmt.Sprintf("unknown directive %s%s (known kinds: nondeterministic-ok, codec-ok, kernel-ok, ctx-ok)", DirectivePrefix, d.kind),
				})
			}
		}
	}
	return out
}

// All returns the analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, CodecSafety, KernelDiscipline, CtxFlow}
}
