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
// exported functions, the methods the standard library dispatches
// through an interface, and the test-support packages; calls through a
// module interface reach every implementation. An exported method
// counts as used only when one of these reaches it, even when its type
// is aliased in the root package. The call graph walks function bodies
// only, so a call from a package-level variable initializer does not
// count. Fix a finding by deleting the function,
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
					fd.Recv != nil && stdlibDispatched[name]:
					roots = append(roots, n)
				}
			}
		}
	}
	return roots
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
