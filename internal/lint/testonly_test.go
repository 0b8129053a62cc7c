package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strings"
	"testing"

	"mobicol/internal/lint/callgraph"
)

// rootPkg is the module's root package, whose exported API is a root.
const rootPkg = "mobicol"

// testOnlyAllowlist names the non-test functions that only tests reach
// but that tests in several packages share, so no single _test.go file
// can own them. Keys are call-graph display names.
var testOnlyAllowlist = map[string]string{
	"mobicol/internal/cover.NewInstance": "the uniform-range instance the cover tests and the root package's benchmarks build",
	"mobicol/internal/engine.Unregister": "removes fixture planners in the engine, conformance and planbench tests",
}

// stdlibDispatched are method names the standard library calls through
// an interface (fmt.Stringer, error, sort.Interface, container/heap,
// types.Importer), so no call edge in the module reaches them.
var stdlibDispatched = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true,
	"Import": true,
}

// testSupportPkgs exist to be called from tests; all of their code is a root.
var testSupportPkgs = map[string]bool{
	"mobicol/internal/check":              true,
	"mobicol/internal/engine/conformance": true,
}

// TestNoTestOnlyCode fails on any non-test function that no binary and
// no user of the root mobicol package can reach: code that only its own
// tests call. The roots are every main and init, the root package's
// exported functions, every exported method of a module type that its
// API exposes, the methods the standard library dispatches through an
// interface, and the test-support packages. The call graph walks
// function bodies only, so a call from a package-level variable
// initializer does not count. Fix a finding by deleting the function,
// moving it into a _test.go file, or, for a helper tests in several
// packages share, adding it to testOnlyAllowlist with a reason. Skipped
// under -short because type-checking the module takes a few seconds.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide typecheck is slow; run without -short")
	}
	pkgs, diags, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, d := range diags {
		t.Errorf("load diagnostic: %s", d)
	}
	m := NewModule(pkgs)
	reached := m.Graph.Reachable(testOnlyRoots(pkgs, m.Graph), nil)

	allowed := map[string]bool{}
	lines := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := declNode(pkg, m.Graph, fd)
				if n == nil || reached[n] {
					continue
				}
				if _, ok := testOnlyAllowlist[n.Name]; ok {
					allowed[n.Name] = true
					continue
				}
				code := codeLines(t, pkg.Fset, fd)
				lines += code
				t.Errorf("%s: %s (%d code lines) is reached only by tests: delete it, move it into a _test.go file, or allowlist it with a reason",
					pkg.Fset.Position(fd.Pos()), n.Name, code)
			}
		}
	}
	if lines > 0 {
		t.Logf("%d test-only code lines in total", lines)
	}
	for name := range testOnlyAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s is stale: the function is gone or now reached; remove the entry", name)
		}
	}
}

// declNode returns the call-graph node of a declared function.
func declNode(pkg *Package, g *callgraph.Graph, fd *ast.FuncDecl) *callgraph.Node {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	return g.NodeOf(obj)
}

// testOnlyRoots collects the reachability roots TestNoTestOnlyCode
// documents.
func testOnlyRoots(pkgs []*Package, g *callgraph.Graph) []*callgraph.Node {
	exposed := exposedMethods(pkgs)
	var roots []*callgraph.Node
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := declNode(pkg, g, fd)
				if n == nil {
					continue
				}
				name := fd.Name.Name
				switch {
				case testSupportPkgs[pkg.ImportPath],
					fd.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main"),
					fd.Recv == nil && pkg.ImportPath == rootPkg && ast.IsExported(name),
					fd.Recv != nil && stdlibDispatched[name],
					exposed[n.Obj]:
					roots = append(roots, n)
				}
			}
		}
	}
	return roots
}

// exposedMethods returns the exported methods of every module type the
// root package's API exposes: a type is exposed when a type alias, an
// exported function's parameter or result, an exported field, or an
// exposed method's parameter or result reaches it, transitively.
func exposedMethods(pkgs []*Package) map[*types.Func]bool {
	inModule := func(p *types.Package) bool {
		return p != nil && (p.Path() == rootPkg || strings.HasPrefix(p.Path(), rootPkg+"/"))
	}
	var root *types.Package
	for _, pkg := range pkgs {
		if pkg.ImportPath == rootPkg {
			root = pkg.Types
		}
	}
	out := map[*types.Func]bool{}
	if root == nil {
		return out
	}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visitSig := func(sig *types.Signature) {
		for i := 0; i < sig.Params().Len(); i++ {
			visit(sig.Params().At(i).Type())
		}
		for i := 0; i < sig.Results().Len(); i++ {
			visit(sig.Results().At(i).Type())
		}
	}
	exposeMethod := func(fn *types.Func) {
		if !fn.Exported() || out[fn.Origin()] {
			return
		}
		out[fn.Origin()] = true
		visitSig(fn.Type().(*types.Signature))
	}
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			visit(types.Unalias(t))
		case *types.Named:
			if !inModule(t.Obj().Pkg()) {
				return
			}
			ms := types.NewMethodSet(types.NewPointer(t))
			if types.IsInterface(t) {
				ms = types.NewMethodSet(t)
			}
			for i := 0; i < ms.Len(); i++ {
				exposeMethod(ms.At(i).Obj().(*types.Func))
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visitSig(t)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					visit(f.Type())
				}
			}
		}
	}
	scope := root.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			visit(obj.Type())
		}
	}
	return out
}

// codeRE matches a blank or comment-only line.
var codeRE = regexp.MustCompile(`^\s*(//.*)?$`)

// codeLines counts the non-blank, non-comment lines of a declaration.
func codeLines(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl) int {
	start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
	src, err := os.ReadFile(start.Filename)
	if err != nil {
		t.Fatalf("read %s: %v", start.Filename, err)
	}
	lines := strings.Split(string(src), "\n")[start.Line-1 : end.Line]
	n := 0
	for _, l := range lines {
		if !codeRE.MatchString(l) {
			n++
		}
	}
	return n
}
