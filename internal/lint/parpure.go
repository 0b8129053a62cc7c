package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mobicol/internal/lint/callgraph"
)

// ParPureAnalyzer builds the par-callback purity checker. The par
// contract is "disjoint slots or ordered reduction", so from each
// callback literal handed to internal/par it flags writes to shared
// state:
//
//   - in the callback itself, a write to a variable declared outside
//     it: map writes and scalar writes race across workers, and slice
//     writes are only safe when the index is derived inside the
//     callback (the per-chunk disjoint-slot pattern);
//   - through the module call graph, any reachable function or closure
//     that assigns to a package-level variable (workers race on it no
//     matter where the write hides), and any closure nested inside the
//     callback that writes a variable declared outside the callback.
//
// Findings are reported at the offending write so the fix site is the
// finding site, and callee findings are deduplicated across callbacks:
// a helper reached from five par loops is one finding, not five. Writes
// through pointers that merely point at shared state are invisible to
// this analysis — the race detector in the test suite remains the
// dynamic backstop. Test files are exempt; tests exercise racy shapes
// deliberately under the race detector.
func ParPureAnalyzer() *Analyzer {
	// One seen-set per analyzer instance: Run reuses the instance across
	// packages, so a callee reachable from callbacks in several packages
	// is still reported once.
	seen := map[parPureKey]bool{}
	return &Analyzer{
		Name: "parpure",
		Doc:  "flag internal/par callbacks, and their callees, that write shared outer state",
		Run:  func(pass *Pass) { runParPure(pass, seen) },
	}
}

// parPureKey identifies one (callee, written variable) pair.
type parPureKey struct {
	node *callgraph.Node
	obj  *types.Var
}

func runParPure(pass *Pass, seen map[parPureKey]bool) {
	for _, file := range pass.Pkg.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkParCallback(pass, lit)
					checkParCallees(pass, lit, seen)
				}
			}
			return true
		})
	}
}

// checkParCallees inspects everything reachable from one par-callback
// literal. The root itself is checkParCallback's job and is skipped.
func checkParCallees(pass *Pass, root *ast.FuncLit, seen map[parPureKey]bool) {
	if pass.Mod == nil || pass.Mod.Graph == nil {
		return
	}
	g := pass.Mod.Graph
	rootNode := g.NodeOfLit(root)
	if rootNode == nil {
		return
	}
	reachable := g.Reachable([]*callgraph.Node{rootNode}, nil)
	// Graph.Nodes() is in deterministic (package, position) order, so the
	// report order is stable run to run.
	for _, n := range g.Nodes() {
		if !reachable[n] || n == rootNode {
			continue
		}
		// Indirect resolution matches by signature alone, so ubiquitous
		// shapes like func() can pull in unrelated test helpers; test
		// files keep their race-detector contract instead.
		if pass.IsTestFile(n.Pos) {
			continue
		}
		pkg := pass.Mod.pkgByPath(n.PkgPath)
		if pkg == nil {
			continue
		}
		var body *ast.BlockStmt
		switch {
		case n.Decl != nil:
			body = n.Decl.Body
		case n.Lit != nil:
			body = n.Lit.Body
		}
		if body == nil {
			continue
		}
		nestedInRoot := n.Lit != nil && root.Pos() <= n.Pos && n.Pos < root.End()
		forEachWrite(pkg.Info, body, func(_ ast.Expr, id *ast.Ident, v *types.Var) {
			key := parPureKey{node: n, obj: v}
			if seen[key] {
				return
			}
			switch {
			case isPackageLevelVar(v):
				seen[key] = true
				pass.Reportf(id.Pos(),
					"%s is reachable from a par callback and writes package-level %s; workers race on it — reduce per-worker results instead",
					n.Name, v.Name())
			case nestedInRoot && (v.Pos() < root.Pos() || v.Pos() >= root.End()):
				seen[key] = true
				pass.Reportf(id.Pos(),
					"closure inside a par callback writes %s declared outside the callback; workers race on it — keep worker state inside the callback",
					v.Name())
			}
		})
	}
}

// forEachWrite visits every assignment or ++/-- target in body whose
// base resolves to a variable, passing the target, its base identifier
// and the variable. It skips nested literals (they are their own graph
// nodes and get their own visit).
func forEachWrite(info *types.Info, body *ast.BlockStmt, visit func(ast.Expr, *ast.Ident, *types.Var)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if stmt.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range stmt.Lhs {
				if id, v := writtenVar(info, lhs); v != nil {
					visit(lhs, id, v)
				}
			}
		case *ast.IncDecStmt:
			if id, v := writtenVar(info, stmt.X); v != nil {
				visit(stmt.X, id, v)
			}
		}
		return true
	})
}

// writtenVar resolves the variable a write target ultimately stores
// into: the base identifier under index/field/deref chains, or the
// package-level variable named by a qualified selector.
func writtenVar(info *types.Info, expr ast.Expr) (*ast.Ident, *types.Var) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				return e, v
			}
			return nil, nil
		case *ast.SelectorExpr:
			// otherpkg.Var resolves through Sel; x.field recurses into x.
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
				return e.Sel, v
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil, nil
		}
	}
}

// isPackageLevelVar reports whether v is declared at package scope.
func isPackageLevelVar(v *types.Var) bool {
	return !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// isParCall reports whether call invokes the deterministic-parallelism
// layer: a function from a package whose import path ends in internal/par
// (or is named par in fixtures), or a method on a type named Pool.
func isParCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Pool" {
			return true
		}
		return false
	}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		return path == "par" || strings.HasSuffix(path, "/par")
	}
	return false
}

// checkParCallback flags writes from the callback body to variables
// declared outside it. Map writes and scalar writes race across workers;
// slice-element writes are allowed only when the index is computed from
// identifiers declared inside the callback (each worker then owns a
// disjoint slot).
func checkParCallback(pass *Pass, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	outside := func(obj types.Object) bool {
		return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
	}
	indexLocal := func(index ast.Expr) bool {
		local := true
		ast.Inspect(index, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, isVar := info.Uses[id].(*types.Var); isVar && outside(v) {
					local = false
				}
			}
			return true
		})
		return local
	}
	forEachWrite(info, lit.Body, func(target ast.Expr, base *ast.Ident, v *types.Var) {
		if !outside(v) {
			return
		}
		switch lhs := target.(type) {
		case *ast.Ident:
			pass.Reportf(lhs.Pos(),
				"par callback writes to %s declared outside the callback; workers race on it — use the chunk result or a disjoint slot",
				lhs.Name)
		case *ast.IndexExpr:
			tv, ok := info.Types[lhs.X]
			if !ok || lhs.X != ast.Expr(base) {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(lhs.Pos(),
					"par callback writes to shared map %s; map writes race across workers — reduce per-worker results instead",
					base.Name)
			case *types.Slice:
				if !indexLocal(lhs.Index) {
					pass.Reportf(lhs.Pos(),
						"par callback writes to shared slice %s at an index captured from outside; derive the index inside the callback so slots stay disjoint",
						base.Name)
				}
			}
		}
	})
}
