// Package callgraph builds a class-hierarchy-analysis (CHA) call graph
// over the type-checked packages of a module, for the interprocedural
// lint analyzers (alloccheck, and purecheck and ctxflow through the
// dataflow summaries). Stdlib only, like the rest of the lint engine.
//
// The graph is a deliberate over-approximation — every call that *could*
// happen at runtime has an edge, some edges can never fire — because the
// analyzers built on it gate performance properties ("nothing reachable
// from the hot path allocates") where a missed edge is a missed
// regression and a spurious edge is at worst a spurious, suppressible
// finding. Three resolution strategies, from precise to best-effort:
//
//   - Static calls: a call whose callee resolves to a named function or
//     a method on a concrete receiver gets exactly one edge.
//   - Interface dispatch: a call through an interface method gets one
//     edge per named type in the module that implements the interface
//     (classic CHA over the module's method sets). Implementations
//     outside the module are invisible — the analyzers only reason
//     about module code anyway.
//   - Function values: a named function or func literal whose value
//     escapes (used anywhere other than direct call position) is
//     recorded as address-taken; an indirect call through an expression
//     of function type gets an edge to every address-taken function
//     with an identical signature.
//
// A func literal additionally gets a *creation* edge from the function
// that syntactically contains it: once the creator runs, the closure
// exists and may be invoked by whoever receives it, so for reachability
// purposes creating a closure is treated as (potentially) calling it.
// This is what makes callbacks handed to internal/par chunk primitives
// reachable from the planners that spawn them.
//
// Reachability applies one rapid-type-analysis-style refinement on top
// of the edges: an edge that exists only because of a signature match
// (the third strategy above) is followed only once some function that
// actually takes the target's address is itself reachable. Without
// this, a single hot indirect call of a common shape like func(int)
// would drag every same-signature closure in the module into the hot
// set, however unrelated. The trade-off: a function value stashed by
// cold setup code and invoked from hot code is missed — acceptable for
// a lint whose edges are otherwise over-approximate, and the escape
// ratchet (mdgratchet escape) catches what the static view cannot see.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pkg is one type-checked package presented to Build. It mirrors the
// lint engine's package shape without importing it (the lint package
// imports this one).
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// externalTestFile reports whether file belongs to an external test
// package (package foo_test). The lint loader skips such files — they
// are a separate compilation unit — but hand-assembled fixture packages
// (testdata modules in tests) can still carry them, and indexing their
// closures would give the graph nodes the analyzers then attribute to
// the package under test. Build skips them for consistency with
// lint.LoadModule.
func externalTestFile(file *ast.File) bool {
	return strings.HasSuffix(file.Name.Name, "_test")
}

// Node is one function in the graph: a declared function or method
// (Obj non-nil) or a func literal (Lit non-nil).
type Node struct {
	Obj     *types.Func   // declared function/method; nil for literals
	Lit     *ast.FuncLit  // func literal; nil for declared functions
	Decl    *ast.FuncDecl // declaration, when Obj is from this module
	PkgPath string        // import path of the package containing the body
	Name    string        // qualified display name, e.g. pkg.(*T).M or pkg.F$lit@42
	Pos     token.Pos

	calls []*Node
	// activators are the functions whose execution makes this node's
	// value available — the enclosing function for a literal, the
	// address-taking functions for a named function.
	activators []*Node
	// onlyIndirect marks callees reachable from this node solely through
	// signature-match resolution; Reachable gates them on activation.
	onlyIndirect map[*Node]bool
}

// Calls returns the node's outgoing edges in deterministic order.
func (n *Node) Calls() []*Node { return n.calls }

// String returns the display name.
func (n *Node) String() string { return n.Name }

// Graph is the module call graph.
type Graph struct {
	nodes []*Node
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	sites map[*ast.CallExpr][]*Node
}

// TargetsOf returns the module-internal callees a specific call
// expression may dispatch to, in deterministic (package, position)
// order: one node for a static call, every CHA implementation for an
// interface call, every signature-matched address-taken function for an
// indirect call. Nil for calls outside the built packages, calls to
// non-module functions, builtins, and conversions. Unlike Node.Calls,
// which aggregates per function, this is per call site — the dataflow
// engine uses it to map arguments to callee parameters.
func (g *Graph) TargetsOf(call *ast.CallExpr) []*Node { return g.sites[call] }

// Nodes returns every node in deterministic (package, position) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeOf returns the node for a declared function or method, or nil if
// the function has no body in the module.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// NodeOfLit returns the node for a func literal, or nil for literals
// outside the packages the graph was built from.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Reachable returns the set of nodes reachable from roots, roots
// included. A non-nil stop predicate marks boundary nodes: a node for
// which stop returns true is neither entered nor expanded, so nothing
// is reachable *through* it.
//
// Signature-matched (indirect) edges are activation-gated: they are
// followed only once one of the target's address-taking functions is
// itself reachable. The traversal therefore runs to a fixpoint —
// reaching an activator can unlock indirect targets deferred earlier.
// The result is a monotone least fixpoint, so it is independent of
// traversal order.
func (g *Graph) Reachable(roots []*Node, stop func(*Node) bool) map[*Node]bool {
	return g.ReachableWithin(roots, nil, stop)
}

// ReachableWithin is Reachable with a pre-activated set: a node in pre
// counts as an activator for indirect edges without being entered or
// expanded itself (unless the traversal reaches it through edges).
// The canonical pre set is Reachable over the module's init functions —
// inits always execute, so a planner registered from init is dispatchable
// through an indirect call even though no Plan path reaches the init.
func (g *Graph) ReachableWithin(roots []*Node, pre map[*Node]bool, stop func(*Node) bool) map[*Node]bool {
	seen := make(map[*Node]bool)
	blocked := func(n *Node) bool { return n == nil || (stop != nil && stop(n)) }
	stack := make([]*Node, 0, len(roots))
	push := func(n *Node) {
		if blocked(n) || seen[n] {
			return
		}
		seen[n] = true
		stack = append(stack, n)
	}
	activated := func(n *Node) bool {
		for _, a := range n.activators {
			if seen[a] || pre[a] {
				return true
			}
		}
		return false
	}
	for _, r := range roots {
		push(r)
	}
	// pending holds indirect targets whose activators were all
	// unreachable when the edge was first seen.
	pending := make(map[*Node]bool)
	for {
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range n.calls {
				if n.onlyIndirect[c] && !activated(c) {
					if !blocked(c) && !seen[c] {
						pending[c] = true
					}
					continue
				}
				push(c)
			}
		}
		progressed := false
		for c := range pending {
			if seen[c] {
				delete(pending, c)
				continue
			}
			if activated(c) {
				delete(pending, c)
				push(c)
				progressed = true
			}
		}
		if !progressed {
			return seen
		}
	}
}

// builder accumulates graph state across the two build phases.
type builder struct {
	graph *Graph
	// methodImpls maps a method name to every concrete implementation
	// declared in the module, for CHA interface-dispatch expansion.
	methodImpls map[string][]*types.Func
	// namedTypes is every non-interface named type declared in the
	// module, the CHA candidate universe.
	namedTypes []*types.Named
	// addrTaken is every function whose value escapes, with the
	// signature it escapes at (receivers already bound for methods).
	addrTaken []addrTakenFn
	// pending indirect calls awaiting addrTaken resolution.
	indirect []indirectCall
	// callFuns marks identifiers that are the callee operand of a call
	// expression, so a direct call does not count as taking the
	// function's address.
	callFuns map[*ast.Ident]bool
}

type addrTakenFn struct {
	node *Node
	sig  *types.Signature
}

type indirectCall struct {
	from *Node
	sig  *types.Signature
	site *ast.CallExpr
}

// Build constructs the call graph for the given packages. Packages must
// be supplied in a deterministic order (the lint loader's topological
// order works); node and edge order then follow from source positions.
// Incomplete type information (packages that carried load diagnostics)
// degrades resolution — calls whose callee cannot be resolved simply
// get no edge — but never fails the build.
func Build(pkgs []Pkg) *Graph {
	b := &builder{
		graph: &Graph{
			byObj: map[*types.Func]*Node{},
			byLit: map[*ast.FuncLit]*Node{},
			sites: map[*ast.CallExpr][]*Node{},
		},
		methodImpls: map[string][]*types.Func{},
		callFuns:    map[*ast.Ident]bool{},
	}
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
		b.collectTypes(pkg)
	}
	for _, pkg := range pkgs {
		b.collectEdges(pkg)
	}
	b.resolveIndirect()
	for _, n := range b.graph.nodes {
		sortEdges(n)
	}
	for site, targets := range b.graph.sites {
		b.graph.sites[site] = sortTargets(targets)
	}
	return b.graph
}

// collectNodes registers a node per declared function and func literal.
func (b *builder) collectNodes(pkg Pkg) {
	for _, file := range pkg.Files {
		if externalTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{
				Obj:     obj,
				Decl:    fd,
				PkgPath: pkg.Path,
				Name:    funcDisplayName(pkg.Path, obj),
				Pos:     fd.Pos(),
			}
			b.graph.nodes = append(b.graph.nodes, n)
			b.graph.byObj[obj] = n
		}
		ast.Inspect(file, func(node ast.Node) bool {
			lit, ok := node.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := pkg.Fset.Position(lit.Pos())
			n := &Node{
				Lit:     lit,
				PkgPath: pkg.Path,
				Name:    fmt.Sprintf("%s.func@%d:%d", pkg.Path, pos.Line, pos.Column),
				Pos:     lit.Pos(),
			}
			b.graph.nodes = append(b.graph.nodes, n)
			b.graph.byLit[lit] = n
			return true
		})
	}
}

// collectTypes records the module's named types and their method
// implementations for CHA expansion of interface calls.
func (b *builder) collectTypes(pkg Pkg) {
	for ident, obj := range pkg.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || ident.Name == "_" {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		b.namedTypes = append(b.namedTypes, named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			b.methodImpls[m.Name()] = append(b.methodImpls[m.Name()], m)
		}
	}
	// Defs iteration order is random; keep the CHA universe sorted so
	// edge construction stays deterministic.
	sort.Slice(b.namedTypes, func(i, j int) bool {
		return b.namedTypes[i].Obj().Pos() < b.namedTypes[j].Obj().Pos()
	})
	for _, impls := range b.methodImpls {
		sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	}
}

// enclosing tracks the current function node while walking a file.
type enclosing struct {
	b    *builder
	pkg  Pkg
	node *Node
}

// collectEdges walks every function body, adding call, creation, and
// address-taken records.
func (b *builder) collectEdges(pkg Pkg) {
	for _, file := range pkg.Files {
		if externalTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			n := b.graph.byObj[obj]
			if n == nil {
				continue
			}
			(&enclosing{b: b, pkg: pkg, node: n}).walkBody(fd.Body)
		}
	}
}

// walkBody visits one function body. Nested literals get a creation
// edge and are then walked under their own node, so each node's edges
// describe exactly its own body.
func (e *enclosing) walkBody(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch expr := n.(type) {
		case *ast.FuncLit:
			lit := e.b.graph.byLit[expr]
			if lit != nil {
				e.node.calls = append(e.node.calls, lit)
				(&enclosing{b: e.b, pkg: e.pkg, node: lit}).walkBody(expr.Body)
				e.noteLitValue(expr, lit)
			}
			return false
		case *ast.CallExpr:
			e.call(expr)
			return true
		case *ast.SelectorExpr:
			// A method expression ((*T).M): its X is a type, so the method
			// identifier is the only operand left to visit.
			if sel := e.pkg.Info.Selections[expr]; sel != nil && sel.Kind() == types.MethodExpr {
				e.noteFuncValue(expr.Sel, e.pkg.Info.TypeOf(expr))
				return false
			}
			return true
		case *ast.Ident:
			e.noteFuncValue(expr, nil)
			return true
		}
		return true
	})
}

// call resolves one call expression to edges.
func (e *enclosing) call(call *ast.CallExpr) {
	info := e.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversions and builtins are not calls.
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}

	switch f := fun.(type) {
	case *ast.FuncLit:
		// Immediately invoked literal: the creation edge added when the
		// literal is visited already covers it, but the site target is
		// recorded so per-call-site consumers resolve it too.
		if lit := e.b.graph.byLit[f]; lit != nil {
			e.b.graph.sites[call] = append(e.b.graph.sites[call], lit)
		}
		return
	case *ast.Ident:
		e.b.callFuns[f] = true
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			e.edgeTo(call, obj)
			return
		case *types.Var:
			e.indirectThrough(info, call, fun)
			return
		}
	case *ast.SelectorExpr:
		e.b.callFuns[f.Sel] = true
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface := interfaceUnder(recv); iface != nil {
				e.chaEdges(call, iface, f.Sel)
				return
			}
			if m, ok := info.Uses[f.Sel].(*types.Func); ok {
				e.edgeTo(call, m)
			}
			return
		}
		// Package-qualified function, or a struct field of function type.
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			e.edgeTo(call, obj)
			return
		case *types.Var:
			e.indirectThrough(info, call, fun)
			return
		}
	}
	// Anything else of function type (call of a call result, index into
	// a slice of funcs, ...) is an indirect call.
	e.indirectThrough(info, call, fun)
}

// edgeTo adds an edge to a declared function when its body is in the
// module; callees outside the module have no node and no edge.
func (e *enclosing) edgeTo(call *ast.CallExpr, obj *types.Func) {
	if target := e.b.graph.byObj[obj]; target != nil {
		e.node.calls = append(e.node.calls, target)
		if call != nil {
			e.b.graph.sites[call] = append(e.b.graph.sites[call], target)
		}
	}
}

// chaEdges adds one edge per module type implementing the interface
// with a matching method — classic class-hierarchy analysis. The
// implementation is resolved through the type's full method set, not
// just its declared methods, so a method promoted from an embedded
// struct lands on the declaring type's body.
func (e *enclosing) chaEdges(call *ast.CallExpr, iface *types.Interface, sel *ast.Ident) {
	var mpkg *types.Package
	if m, ok := e.pkg.Info.Uses[sel].(*types.Func); ok {
		mpkg = m.Pkg()
	}
	for _, named := range e.b.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(named, true, mpkg, sel.Name)
		if impl, ok := obj.(*types.Func); ok {
			e.edgeTo(call, impl)
		}
	}
}

// indirectThrough records a call through a function-typed expression for
// later resolution against the address-taken set.
func (e *enclosing) indirectThrough(info *types.Info, call *ast.CallExpr, fun ast.Expr) {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	e.b.indirect = append(e.b.indirect, indirectCall{from: e.node, sig: sig, site: call})
}

// noteFuncValue records a named function used as a value (any mention
// outside direct call position) as address-taken. exprType is the type
// of the method expression id is the method of, or nil.
func (e *enclosing) noteFuncValue(id *ast.Ident, exprType types.Type) {
	obj, ok := e.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if e.inCallPosition(id) {
		return
	}
	node := e.b.graph.byObj[obj]
	if node == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	switch {
	case exprType != nil:
		// A method expression takes the receiver as its first parameter.
		if sig, ok = exprType.(*types.Signature); !ok {
			return
		}
	case sig.Recv() != nil:
		// A method value binds the receiver: its value type drops it.
		sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	}
	node.activators = append(node.activators, e.node)
	e.b.addrTaken = append(e.b.addrTaken, addrTakenFn{node: node, sig: sig})
}

// noteLitValue records an escaping func literal as address-taken so
// indirect calls with its signature reach it.
func (e *enclosing) noteLitValue(lit *ast.FuncLit, node *Node) {
	tv, ok := e.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		node.activators = append(node.activators, e.node)
		e.b.addrTaken = append(e.b.addrTaken, addrTakenFn{node: node, sig: sig})
	}
}

// inCallPosition reports whether id is the callee operand of a call.
// ast.Inspect visits a call expression before its children, so by the
// time the ident itself is visited, call() has already marked it.
func (e *enclosing) inCallPosition(id *ast.Ident) bool {
	return e.b.callFuns[id]
}

// resolveIndirect adds edges from every indirect call site to every
// address-taken function with an identical signature. Edges that exist
// only through this resolution are marked so Reachable can gate them on
// a reachable activator.
func (b *builder) resolveIndirect() {
	static := make(map[*Node]map[*Node]bool)
	for _, n := range b.graph.nodes {
		if len(n.calls) == 0 {
			continue
		}
		set := make(map[*Node]bool, len(n.calls))
		for _, c := range n.calls {
			set[c] = true
		}
		static[n] = set
	}
	for _, call := range b.indirect {
		for _, at := range b.addrTaken {
			if types.Identical(call.sig, at.sig) {
				call.from.calls = append(call.from.calls, at.node)
				if call.site != nil {
					b.graph.sites[call.site] = append(b.graph.sites[call.site], at.node)
				}
				if !static[call.from][at.node] {
					if call.from.onlyIndirect == nil {
						call.from.onlyIndirect = make(map[*Node]bool)
					}
					call.from.onlyIndirect[at.node] = true
				}
			}
		}
	}
}

// sortEdges dedups and orders a node's edges by (package, position).
func sortEdges(n *Node) {
	if len(n.calls) < 2 {
		return
	}
	sort.Slice(n.calls, func(i, j int) bool {
		a, c := n.calls[i], n.calls[j]
		if a.PkgPath != c.PkgPath {
			return a.PkgPath < c.PkgPath
		}
		if a.Pos != c.Pos {
			return a.Pos < c.Pos
		}
		return a.Name < c.Name
	})
	out := n.calls[:1]
	for _, c := range n.calls[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	n.calls = out
}

// sortTargets dedups and orders one call site's resolved targets.
func sortTargets(targets []*Node) []*Node {
	if len(targets) < 2 {
		return targets
	}
	sort.Slice(targets, func(i, j int) bool {
		a, c := targets[i], targets[j]
		if a.PkgPath != c.PkgPath {
			return a.PkgPath < c.PkgPath
		}
		if a.Pos != c.Pos {
			return a.Pos < c.Pos
		}
		return a.Name < c.Name
	})
	out := targets[:1]
	for _, c := range targets[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// interfaceUnder returns the interface type under t (through pointers),
// or nil when t is concrete.
func interfaceUnder(t types.Type) *types.Interface {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// funcDisplayName renders pkg.F, pkg.(T).M, or pkg.(*T).M.
func funcDisplayName(pkgPath string, obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgPath + "." + obj.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		ptr = "*"
		recv = p.Elem()
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkgPath, ptr, name, obj.Name())
}
