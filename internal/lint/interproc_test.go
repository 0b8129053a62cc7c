package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// HotRootCount returns the number of annotated hot-path roots.
func (m *Module) HotRootCount() int { return len(m.hotRoots) }

func TestAllocCheckAnalyzer(t *testing.T) {
	checkFixture(t, AllocCheckAnalyzer(), "alloccheck.go", "mobicol/internal/fixture")
}

// TestAllocCheckSkipsTestFiles pins the test-file exemption: hot-path
// annotations in a _test.go file produce nothing.
func TestAllocCheckSkipsTestFiles(t *testing.T) {
	const src = `package p

//mdglint:hotpath
func hot(n int) []int {
	return make([]int, n)
}
`
	pkg := loadSource(t, "hot_test.go", src)
	if fs := Run([]*Package{pkg}, []*Analyzer{AllocCheckAnalyzer()}); len(fs) != 0 {
		t.Errorf("alloccheck fired in a test file: %v", fs)
	}
}

// TestMisplacedHotpathDirectiveIsReported pins that a //mdglint:hotpath
// away from a function declaration surfaces as an unsuppressable
// mdglint finding instead of silently annotating nothing.
func TestMisplacedHotpathDirectiveIsReported(t *testing.T) {
	const src = `package p

func f(n int) int {
	//mdglint:hotpath
	x := n * 2
	return x
}
`
	pkg := loadSource(t, "p.go", src)
	findings := Run([]*Package{pkg}, Analyzers())
	var misplaced int
	for _, f := range findings {
		if f.Analyzer == "mdglint" && strings.Contains(f.Message, "misplaced directive") {
			misplaced++
		}
	}
	if misplaced != 1 {
		t.Errorf("want 1 misplaced-directive finding, got %d: %v", misplaced, findings)
	}
}

// TestMalformedAllowAllocIsReported pins that allow-alloc without a
// parenthesized reason is itself a finding and does not suppress the
// allocation it sits on.
func TestMalformedAllowAllocIsReported(t *testing.T) {
	const src = `package p

//mdglint:hotpath
func hot(n int) []int {
	//mdglint:allow-alloc
	buf := make([]int, n)
	return buf
}
`
	pkg := loadSource(t, "p.go", src)
	findings := Run([]*Package{pkg}, Analyzers())
	var malformed, allocs int
	for _, f := range findings {
		switch {
		case f.Analyzer == "mdglint" && strings.Contains(f.Message, "allow-alloc"):
			malformed++
		case f.Analyzer == "alloccheck":
			allocs++
		}
	}
	if malformed != 1 {
		t.Errorf("want 1 malformed allow-alloc finding, got %d: %v", malformed, findings)
	}
	if allocs != 1 {
		t.Errorf("broken directive must not suppress the make; got %d alloccheck findings: %v", allocs, findings)
	}
}

// TestHotnessPropagatesAcrossPackages pins the interprocedural core: a
// hot root in one package makes a callee in another package hot, and an
// allow-alloc boundary on the way stops the propagation.
func TestHotnessPropagatesAcrossPackages(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"internal/planner/p.go": `package planner

import "example.com/m/internal/util"

//mdglint:hotpath
func Plan(n int) int {
	return util.Helper(n) + util.Boundary(n)
}
`,
		"internal/util/u.go": `package util

// Helper is hot by reachability.
func Helper(n int) int {
	buf := make([]int, n)
	return len(buf)
}

// Boundary is audited.
//
//mdglint:allow-alloc(cold setup, measured)
func Boundary(n int) int {
	return len(make([]int, n)) + behind(n)
}

func behind(n int) int {
	return len(make([]int, n))
}
`,
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected load diagnostics: %v", diags)
	}
	findings := Run(pkgs, []*Analyzer{AllocCheckAnalyzer()})
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding (Helper's make), got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if !strings.HasSuffix(f.Pos.Filename, "u.go") || !strings.Contains(f.Message, "make allocates") {
		t.Errorf("finding is not Helper's make: %s", f)
	}
}

// TestModuleDirectiveAccessors pins the Module surface the CLI and the
// analyzers share: hot-root counting, per-function hotness, and the two
// sanctioned line-level allow-alloc placements (same line, line above).
func TestModuleDirectiveAccessors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

//mdglint:hotpath
func Hot(n int) int {
	//mdglint:allow-alloc(above-line placement)
	buf := make([]int, n)
	buf = append(buf, 1) //mdglint:allow-alloc(same-line placement)
	return len(buf)
}

func Cold() int { return 0 }
`,
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected load diagnostics: %v", diags)
	}
	m := NewModule(pkgs)
	if got := m.HotRootCount(); got != 1 {
		t.Errorf("HotRootCount() = %d, want 1", got)
	}

	pkg := pkgs[0]
	decls := map[string]*ast.FuncDecl{}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Name] = fd
			}
		}
	}
	if !m.HotFunc(pkg, decls["Hot"]) {
		t.Error("annotated root Hot is not hot")
	}
	if m.HotFunc(pkg, decls["Cold"]) {
		t.Error("unreferenced Cold must stay cold")
	}

	// Both placements must resolve through AllowedAt: the make's line is
	// covered by the directive above it, the append's by the same-line
	// trailing comment, and Cold carries no allow at all.
	var makePos, appendPos ast.Node
	ast.Inspect(decls["Hot"].Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "make":
					makePos = call
				case "append":
					appendPos = call
				}
			}
		}
		return true
	})
	if r := m.AllowedAt(pkg, makePos.Pos()); r != "above-line placement" {
		t.Errorf("AllowedAt(make) = %q, want the above-line reason", r)
	}
	if r := m.AllowedAt(pkg, appendPos.Pos()); r != "same-line placement" {
		t.Errorf("AllowedAt(append) = %q, want the same-line reason", r)
	}
	if r := m.AllowedAt(pkg, decls["Cold"].Pos()); r != "" {
		t.Errorf("AllowedAt(Cold) = %q, want none", r)
	}

	// With both sites excused, alloccheck must report nothing.
	if findings := Run(pkgs, []*Analyzer{AllocCheckAnalyzer()}); len(findings) != 0 {
		t.Errorf("excused sites still reported: %v", findings)
	}
}
