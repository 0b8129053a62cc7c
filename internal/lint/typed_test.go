package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadSource type-checks one in-memory file under the given filename
// (the name matters: _test.go suffixes trigger analyzer exemptions).
func loadSource(t *testing.T, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", filename, err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := (&types.Config{}).Check("mobicol/internal/fixture", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", filename, err)
	}
	return &Package{ImportPath: "mobicol/internal/fixture", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

func TestUnitCheckAnalyzer(t *testing.T) {
	checkFixture(t, UnitCheckAnalyzer(), "unitcheck.go", "mobicol/internal/fixture")
}

// TestUnitCheckSkipsTestFiles pins the test-file exemption: the same
// laundering shapes in a _test.go file must produce nothing.
func TestUnitCheckSkipsTestFiles(t *testing.T) {
	const src = `package p

type Meters float64

func launder(m Meters) float64 { return float64(m) }
`
	pkg := loadSource(t, "launder_test.go", src)
	if fs := Run([]*Package{pkg}, []*Analyzer{UnitCheckAnalyzer()}); len(fs) != 0 {
		t.Errorf("unitcheck fired in a test file: %v", fs)
	}
}

// TestLoopCaptureAnalyzer pins the capture cases of loopcapture.go: the
// par-callback writes are parpure's findings, and the go/defer literals
// reading loop variables draw nothing from the whole suite.
func TestLoopCaptureAnalyzer(t *testing.T) {
	checkFixture(t, ParPureAnalyzer(), "loopcapture.go", "mobicol/internal/fixture")
	pkg := loadFixture(t, "loopcapture.go", "mobicol/internal/fixture")
	for _, f := range Run([]*Package{pkg}, Analyzers()) {
		if f.Analyzer != "parpure" {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestConvCheckAnalyzer(t *testing.T) {
	// A hot planning-path import puts all three conversion rules in force.
	checkFixture(t, ConvCheckAnalyzer(), "convcheck.go", "mobicol/internal/tsp")
}

// TestConvCheckFloat32RuleScopedToHotPaths pins the scoping: under a cold
// import path the float32 truncation rule is silent while the redundant
// and round-trip rules still fire.
func TestConvCheckFloat32RuleScopedToHotPaths(t *testing.T) {
	pkg := loadFixture(t, "convcheck.go", "mobicol/internal/viz")
	var trunc, other int
	for _, f := range Run([]*Package{pkg}, []*Analyzer{ConvCheckAnalyzer()}) {
		if strings.Contains(f.Message, "float32 truncation") {
			trunc++
		} else {
			other++
		}
	}
	if trunc != 0 {
		t.Errorf("float32 truncation rule fired %d times outside the hot packages", trunc)
	}
	if other == 0 {
		t.Error("redundant/round-trip rules must stay active outside the hot packages")
	}
}

// TestCrossAnalyzerFixture runs the full suite over one file that trips
// every analyzer rule exactly once and pins the exact (line, analyzer)
// sequence: findings come back sorted by position, so the sequence is
// fixed by the fixture's layout.
func TestCrossAnalyzerFixture(t *testing.T) {
	pkg := loadFixture(t, "crossanalyzer.go", "mobicol/internal/sim")
	findings := Run([]*Package{pkg}, Analyzers())

	type at struct {
		line     int
		analyzer string
	}
	want := []at{
		{19, "globalvar"}, {23, "determinism"}, {30, "floateq"}, {35, "nopanic"},
		{43, "errcheck"}, {47, "unitcheck"}, {51, "convcheck"}, {66, "alloccheck"},
		{76, "parpure"}, {80, "errcheck"}, {97, "purecheck"}, {98, "ctxflow"},
	}
	got := make([]at, len(findings))
	for i, f := range findings {
		got[i] = at{f.Pos.Line, f.Analyzer}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("(line, analyzer) sequence\n got %v\nwant %v\nfindings: %v", got, want, findings)
	}
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.analyzer] = true
	}
	if len(seen) != len(Analyzers()) {
		t.Errorf("fixture trips %d analyzers, suite has %d", len(seen), len(Analyzers()))
	}
}

// writeModule lays out a throwaway module for loader failure-path tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadModuleTypeErrorBecomesDiagnostic pins the loader's failure
// contract: a package with a type error must come back as a "load"
// finding at the offending line — not a hard error, and certainly not a
// panic — and the healthy packages must still be fully type-checked.
func TestLoadModuleTypeErrorBecomesDiagnostic(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":        "module example.com/m\n\ngo 1.22\n",
		"broken/bad.go": "package broken\n\nfunc f() int {\n\treturn \"not an int\"\n}\n",
		"healthy/ok.go": "package healthy\n\n// F is fine.\nfunc F() int { return 1 }\n",
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule returned a hard error for a type error: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (broken and healthy)", len(pkgs))
	}
	var found bool
	for _, d := range diags {
		if d.Analyzer != "load" {
			t.Errorf("diagnostic from analyzer %q, want \"load\": %s", d.Analyzer, d)
		}
		if strings.Contains(d.Message, "typecheck example.com/m/broken") &&
			strings.HasSuffix(d.Pos.Filename, "bad.go") && d.Pos.Line == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("no load diagnostic at bad.go:4 for the type error; got %v", diags)
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Errorf("package %s missing type information after diagnostic-tolerant load", p.ImportPath)
		}
	}
}

// TestLoadModuleParseErrorBecomesDiagnostic does the same for a syntax
// error: the malformed file surfaces as load findings and the rest of the
// module still loads.
func TestLoadModuleParseErrorBecomesDiagnostic(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":        "module example.com/m\n\ngo 1.22\n",
		"broken/bad.go": "package broken\n\nfunc f( {\n",
		"healthy/ok.go": "package healthy\n\n// F is fine.\nfunc F() int { return 1 }\n",
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule returned a hard error for a parse error: %v", err)
	}
	var parseDiags int
	for _, d := range diags {
		if strings.Contains(d.Message, "parse error") && strings.HasSuffix(d.Pos.Filename, "bad.go") {
			parseDiags++
		}
	}
	if parseDiags == 0 {
		t.Fatalf("no parse-error diagnostics for bad.go; got %v", diags)
	}
	var healthyLoaded bool
	for _, p := range pkgs {
		if p.ImportPath == "example.com/m/healthy" {
			healthyLoaded = true
		}
	}
	if !healthyLoaded {
		t.Error("healthy package missing after parse-error-tolerant load")
	}
}

// TestRunToleratesPartialInfo pins that every analyzer survives a package
// whose type information is incomplete (the shape a load diagnostic
// leaves behind): running the full suite over the broken package must not
// panic.
func TestRunToleratesPartialInfo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":               "module example.com/m\n\ngo 1.22\n",
		"internal/broken/b.go": "package broken\n\nfunc f() int {\n\treturn undefinedName\n}\n",
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("expected load diagnostics for the undefined name")
	}
	_ = Run(pkgs, Analyzers()) // must not panic on partial Info
}
