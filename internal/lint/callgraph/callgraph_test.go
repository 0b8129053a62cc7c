package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildFrom type-checks one in-memory file and builds its call graph.
func buildFrom(t *testing.T, src string) (*Graph, *Pkg) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkg := &Pkg{Path: "p", Fset: fset, Files: []*ast.File{file}, Info: info}
	return Build([]Pkg{*pkg}), pkg
}

// node finds a graph node by display-name substring.
func node(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if strings.Contains(n.Name, name) {
			return n
		}
	}
	t.Fatalf("no node matching %q in %v", name, g.Nodes())
	return nil
}

// calls reports whether from has a direct edge to a node matching name.
func calls(from *Node, name string) bool {
	for _, c := range from.Calls() {
		if strings.Contains(c.Name, name) {
			return true
		}
	}
	return false
}

func TestStaticCallEdges(t *testing.T) {
	g, _ := buildFrom(t, `package p

func a() { b(); c(3) }
func b() {}
func c(int) {}
func unrelated() {}
`)
	na := node(t, g, "p.a")
	if !calls(na, "p.b") || !calls(na, "p.c") {
		t.Errorf("a must call b and c; edges: %v", na.Calls())
	}
	if calls(na, "unrelated") {
		t.Errorf("spurious edge a -> unrelated")
	}
}

func TestMethodCallEdges(t *testing.T) {
	g, _ := buildFrom(t, `package p

type T struct{ n int }

func (t *T) M() int { return t.helper() }
func (t *T) helper() int { return t.n }

func use(t *T) int { return t.M() }
`)
	if !calls(node(t, g, "(*T).M"), "helper") {
		t.Error("method body edge M -> helper missing")
	}
	if !calls(node(t, g, "p.use"), "(*T).M") {
		t.Error("concrete method call edge use -> M missing")
	}
}

func TestInterfaceDispatchCHA(t *testing.T) {
	g, _ := buildFrom(t, `package p

type runner interface{ Run() }

type fast struct{}
func (fast) Run() {}

type slow struct{}
func (*slow) Run() {}

type bystander struct{}
func (bystander) Walk() {}

func dispatch(r runner) { r.Run() }
`)
	nd := node(t, g, "dispatch")
	if !calls(nd, "(fast).Run") {
		t.Errorf("CHA edge dispatch -> fast.Run missing; edges: %v", nd.Calls())
	}
	if !calls(nd, "(*slow).Run") {
		t.Errorf("CHA edge dispatch -> (*slow).Run missing; edges: %v", nd.Calls())
	}
	if calls(nd, "bystander") {
		t.Error("spurious CHA edge to a non-implementer")
	}
}

func TestFunctionValueResolution(t *testing.T) {
	g, _ := buildFrom(t, `package p

func apply(f func(int) int, x int) int { return f(x) }

func double(x int) int { return 2 * x }
func negate(x int) int { return -x }
func otherShape(x, y int) int { return x + y }

func use() int { return apply(double, 1) + apply(negate, 2) }
`)
	na := node(t, g, "apply")
	if !calls(na, "double") || !calls(na, "negate") {
		t.Errorf("indirect call must resolve to the address-taken matches; edges: %v", na.Calls())
	}
	if calls(na, "otherShape") {
		t.Error("indirect resolution matched a different signature")
	}
}

func TestClosureCreationEdgeAndReachability(t *testing.T) {
	g, _ := buildFrom(t, `package p

func spawn(fn func()) { fn() }

func parent() {
	n := 0
	spawn(func() { n++; leaf() })
}

func leaf() {}
func island() {}
`)
	np := node(t, g, "parent")
	if !calls(np, "func@") {
		t.Errorf("creation edge parent -> literal missing; edges: %v", np.Calls())
	}
	reach := g.Reachable([]*Node{np}, nil)
	if !reach[node(t, g, "leaf")] {
		t.Error("leaf must be reachable from parent through the closure")
	}
	if reach[node(t, g, "island")] {
		t.Error("island must not be reachable")
	}
}

// TestIndirectReachabilityGatedOnActivation pins the RTA refinement:
// signature-matched edges contribute to reachability only when some
// function taking the target's address is itself reachable.
func TestIndirectReachabilityGatedOnActivation(t *testing.T) {
	g, _ := buildFrom(t, `package p

func invoke(f func(int) int, x int) int { return f(x) }

func hotUse() int { return invoke(double, 1) }
func coldUse() int { return invoke(negate, 2) }

func double(x int) int { return 2 * x }
func negate(x int) int { return -x }
`)
	ni := node(t, g, "invoke")
	if !calls(ni, "double") || !calls(ni, "negate") {
		t.Fatalf("edges must over-approximate to both targets; got %v", ni.Calls())
	}
	reach := g.Reachable([]*Node{node(t, g, "hotUse")}, nil)
	if !reach[node(t, g, "p.double")] {
		t.Error("double's address is taken in hotUse; it must be reachable")
	}
	if reach[node(t, g, "p.negate")] {
		t.Error("negate's only activator is coldUse; it must not be reachable from hotUse")
	}
}

func TestReachableStopBoundary(t *testing.T) {
	g, _ := buildFrom(t, `package p

func a() { b() }
func b() { c() }
func c() {}
`)
	nb := node(t, g, "p.b")
	reach := g.Reachable([]*Node{node(t, g, "p.a")}, func(n *Node) bool { return n == nb })
	if reach[nb] || reach[node(t, g, "p.c")] {
		t.Errorf("stop node and everything behind it must be excluded; got %v", reach)
	}
	if !reach[node(t, g, "p.a")] {
		t.Error("root itself must be reachable")
	}
}

func TestDeterministicEdgeOrder(t *testing.T) {
	src := `package p

func hub() { z(); a(); m(); a() }
func a() {}
func m() {}
func z() {}
`
	g1, _ := buildFrom(t, src)
	g2, _ := buildFrom(t, src)
	e1, e2 := node(t, g1, "hub").Calls(), node(t, g2, "hub").Calls()
	if len(e1) != 3 || len(e2) != 3 {
		t.Fatalf("duplicate edges not collapsed: %v / %v", e1, e2)
	}
	for i := range e1 {
		if e1[i].Name != e2[i].Name {
			t.Fatalf("edge order differs between builds: %v vs %v", e1, e2)
		}
	}
	for i := 1; i < len(e1); i++ {
		if e1[i-1].Pos >= e1[i].Pos {
			t.Errorf("edges not in position order: %v", e1)
		}
	}
}

// TestExternalTestFilesExcluded pins consistency with lint.LoadModule:
// files in an external test package (package foo_test) contribute no
// nodes or edges, even when hand-assembled fixtures carry them in the
// same Pkg.
func TestExternalTestFilesExcluded(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}
	mainFile := parse("p.go", `package p

func Real() { helper() }
func helper() {}
`)
	extFile := parse("p_ext_test.go", `package p_test

func Shadow() {
	hook := func() { Shadow() }
	hook()
}
`)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{mainFile}, info); err != nil {
		t.Fatalf("typecheck main: %v", err)
	}
	if _, err := (&types.Config{}).Check("p_test", fset, []*ast.File{extFile}, info); err != nil {
		t.Fatalf("typecheck external test: %v", err)
	}
	g := Build([]Pkg{{Path: "p", Fset: fset, Files: []*ast.File{mainFile, extFile}, Info: info}})
	for _, n := range g.Nodes() {
		if strings.Contains(n.Name, "Shadow") || n.Lit != nil {
			t.Errorf("external test file leaked node %s into the graph", n.Name)
		}
	}
	if !calls(node(t, g, "p.Real"), "helper") {
		t.Error("regular file's edges must survive the exclusion")
	}
}

// TestMethodValueEdges pins method-value resolution: t.M passed as a
// bare function value binds its receiver, so an indirect call of the
// receiver-less signature reaches the method, gated on the taker.
func TestMethodValueEdges(t *testing.T) {
	g, _ := buildFrom(t, `package p

type T struct{ n int }

func (t *T) M() int { return t.n }
func (t *T) other(int) int { return 0 }

func invoke(f func() int) int { return f() }

func use(t *T) int { return invoke(t.M) }
`)
	ni := node(t, g, "invoke")
	if !calls(ni, "(*T).M") {
		t.Errorf("indirect call must resolve to the bound method value; edges: %v", ni.Calls())
	}
	if calls(ni, "other") {
		t.Error("receiver-bound signature matched a method of a different shape")
	}
	reach := g.Reachable([]*Node{node(t, g, "p.use")}, nil)
	if !reach[node(t, g, "(*T).M")] {
		t.Error("use takes t.M's value, so M must be reachable from use")
	}
}

// TestMethodExprEdges pins method-expression resolution: (*T).M used as
// a value keeps the receiver as its first parameter, so an indirect call
// through a variable of that signature reaches the method, while a
// method value's receiver-less signature does not match it.
func TestMethodExprEdges(t *testing.T) {
	g, _ := buildFrom(t, `package p

type T struct{ n int }

func (t *T) M(k int) int  { return t.n + k }
func (t *T) N(k int) int  { return t.n - k }
func (t *T) unused() bool { return false }

func pick(t *T, add bool) int {
	f := (*T).N
	if add {
		f = (*T).M
	}
	return f(t, 1)
}

func bound(f func(int) int) int { return f(1) }
`)
	np := node(t, g, "p.pick")
	for _, m := range []string{"(*T).M", "(*T).N"} {
		if !calls(np, m) {
			t.Errorf("indirect call through a method expression must reach %s; edges: %v", m, np.Calls())
		}
	}
	if calls(node(t, g, "p.bound"), "(*T).M") {
		t.Error("a method expression matched the receiver-less signature of a method value")
	}
	reach := g.Reachable([]*Node{np}, nil)
	if !reach[node(t, g, "(*T).M")] || reach[node(t, g, "unused")] {
		t.Error("want M reachable from pick through the method expression, and unused not")
	}
}

// TestEmbeddedInterfaceDispatch pins CHA through interface embedding: a
// call on a method inherited from an embedded interface fans out to the
// implementers, and an implementation promoted from an embedded struct
// resolves to the declaring type's method body.
func TestEmbeddedInterfaceDispatch(t *testing.T) {
	g, _ := buildFrom(t, `package p

type closer interface{ Close() }

type resource interface {
	closer
	Open()
}

type file struct{}

func (*file) Open()  {}
func (*file) Close() {}

type base struct{}

func (base) Close() {}

type wrapped struct{ base }

func (wrapped) Open() {}

func shutdown(r resource) { r.Close() }
`)
	ns := node(t, g, "shutdown")
	if !calls(ns, "(*file).Close") {
		t.Errorf("embedded-interface method must dispatch to direct implementers; edges: %v", ns.Calls())
	}
	if !calls(ns, "(base).Close") {
		t.Errorf("promoted implementation must resolve to the declaring type's body; edges: %v", ns.Calls())
	}
	if calls(ns, "Open") {
		t.Error("dispatch expanded the wrong method name")
	}
}

// TestReachableWithinPreActivatedSet pins the pre-activation seam used
// by ctxflow: a registration function outside the traversal can still
// unlock indirect targets it activates.
func TestReachableWithinPreActivatedSet(t *testing.T) {
	g, _ := buildFrom(t, `package p

var sink func(int) int

func register() { sink = double }

func invoke(f func(int) int, x int) int { return f(x) }

func double(x int) int { return 2 * x }
`)
	ni := node(t, g, "invoke")
	nd := node(t, g, "p.double")
	if !calls(ni, "double") {
		t.Fatalf("indirect edge invoke -> double missing; edges: %v", ni.Calls())
	}
	if g.Reachable([]*Node{ni}, nil)[nd] {
		t.Error("without pre-activation, double's only taker is unreachable")
	}
	pre := map[*Node]bool{node(t, g, "register"): true}
	reach := g.ReachableWithin([]*Node{ni}, pre, nil)
	if !reach[nd] {
		t.Error("pre-activated register must unlock the indirect edge to double")
	}
	if reach[node(t, g, "register")] {
		t.Error("pre-set members are activators, not roots; register must not be entered")
	}
}

// TestSiteTargetsAndLookups pins the per-call-site resolution surface
// the dataflow engine consumes: TargetsOf for static calls, indirect
// calls through struct fields, immediately invoked literals, and nil
// for conversions — plus the NodeOf/NodeOfLit/String lookups.
func TestSiteTargetsAndLookups(t *testing.T) {
	g, pkg := buildFrom(t, `package p

type h struct{ fn func(int) int }

func scale(x int) int { return x * 2 }

func run(hh h, x int) int {
	y := func(v int) int { return v + 1 }(x)
	return hh.fn(x) + scale(y) + int(int32(x))
}

func wire() h { return h{fn: scale} }
`)
	var lit *ast.FuncLit
	calls := map[string]*ast.CallExpr{}
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			lit = e
		case *ast.CallExpr:
			switch f := e.Fun.(type) {
			case *ast.Ident:
				calls[f.Name] = e
			case *ast.SelectorExpr:
				calls[f.Sel.Name] = e
			case *ast.FuncLit:
				calls["lit"] = e
			}
		}
		return true
	})

	scaleNode := node(t, g, "p.scale")
	if scaleNode.Obj == nil || g.NodeOf(scaleNode.Obj) != scaleNode {
		t.Error("NodeOf must round-trip the declared function")
	}
	if scaleNode.String() != scaleNode.Name {
		t.Errorf("String() = %q, want the display name %q", scaleNode.String(), scaleNode.Name)
	}
	litNode := g.NodeOfLit(lit)
	if litNode == nil {
		t.Fatal("NodeOfLit must resolve the literal")
	}
	if got := g.TargetsOf(calls["lit"]); len(got) != 1 || got[0] != litNode {
		t.Errorf("immediately invoked literal targets = %v, want the literal node", got)
	}
	if got := g.TargetsOf(calls["scale"]); len(got) != 1 || got[0] != scaleNode {
		t.Errorf("static call targets = %v, want exactly scale", got)
	}
	fnTargets := g.TargetsOf(calls["fn"])
	foundScale := false
	for _, n := range fnTargets {
		if n == scaleNode {
			foundScale = true
		}
	}
	if !foundScale {
		t.Errorf("field-typed indirect call must target the address-taken scale; got %v", fnTargets)
	}
	if got := g.TargetsOf(calls["int"]); got != nil {
		t.Errorf("conversion has targets %v, want nil", got)
	}
}
