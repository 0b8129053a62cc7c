package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModuleSkipsExternalTestPackages pins the loader contract that
// keeps external test packages from manufacturing import cycles: a/
// has an external (package a_test) test file importing b, and b imports
// a. Merging the external file into a would make a directory-level cycle
// a -> b -> a; the loader must skip it and type-check cleanly.
func TestLoadModuleSkipsExternalTestPackages(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("a/a.go", "package a\n\n// A is exercised by the external suite.\nfunc A() int { return 1 }\n")
	write("a/a_in_test.go", "package a\n\nvar _ = A\n")
	write("a/a_ext_test.go", "package a_test\n\nimport \"example.com/m/b\"\n\nvar _ = b.B\n")
	write("b/b.go", "package b\n\nimport \"example.com/m/a\"\n\n// B wraps a.A.\nfunc B() int { return a.A() }\n")

	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected load diagnostics: %v", diags)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if filepath.Base(name) == "a_ext_test.go" {
				t.Errorf("external test file %s was loaded into %s", name, p.ImportPath)
			}
		}
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (a and b)", len(pkgs))
	}
}

// TestLoadModuleStructuralErrors pins the loader's hard-error contract:
// no go.mod, a go.mod without a module line, an import cycle and an
// import of a package the module does not have each fail the load with
// an error naming the problem, while a quoted module path loads.
func TestLoadModuleStructuralErrors(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"no go.mod", map[string]string{"a/a.go": "package a\n"}, "no go.mod found"},
		{"no module line", map[string]string{"go.mod": "go 1.22\n", "a/a.go": "package a\n"}, "no module declaration"},
		{"import cycle", map[string]string{
			"go.mod": "module example.com/m\n\ngo 1.22\n",
			"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nvar _ = b.B\n",
			"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\n// B is in the cycle.\nconst B = 1\n\nvar _ = a.A\n",
		}, "import cycle"},
		{"missing package", map[string]string{
			"go.mod": "module example.com/m\n\ngo 1.22\n",
			"a/a.go": "package a\n\nimport \"example.com/m/gone\"\n\nvar _ = gone.X\n",
		}, "not in the module"},
	}
	for _, c := range cases {
		root := writeModule(t, c.files)
		if _, err := FindModuleRoot(filepath.Dir(root)); c.name == "no go.mod" && err == nil {
			continue // the temp directory sits inside some other module
		}
		// Load from the package directory, so the go.mod search walks up.
		_, _, err := LoadModule(filepath.Join(root, "a"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}

	root := writeModule(t, map[string]string{
		"go.mod": "module \"example.com/q\"\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// A is fine.\nfunc A() int { return 1 }\n",
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil || len(diags) != 0 || len(pkgs) != 1 || pkgs[0].ImportPath != "example.com/q/a" {
		t.Errorf("quoted module path: pkgs %v, diags %v, err %v; want example.com/q/a alone", pkgs, diags, err)
	}
}

// TestLoadModuleSelfImportAndBuildConstraints pins two file-selection
// shapes: an in-package test file importing its own package surfaces as
// a load diagnostic instead of a cycle, and a malformed //go:build line
// keeps its file in the load (the compiler reports it) while a
// constraint that does not hold leaves its file out.
func TestLoadModuleSelfImportAndBuildConstraints(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":         "module example.com/m\n\ngo 1.22\n",
		"a/a.go":         "package a\n\n// A is fine.\nfunc A() int { return 1 }\n",
		"a/self_test.go": "package a\n\nimport \"example.com/m/a\"\n\nvar _ = a.A\n",
		"b/bad.go":       "//go:build (linux\n\npackage b\n\n// B stays in the load.\nconst B = 1\n",
		"b/other.go":     "//go:build ignore\n\npackage b\n\n// B would be redeclared.\nconst B = 2\n",
	})
	pkgs, diags, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var selfImport bool
	for _, d := range diags {
		if strings.Contains(d.Message, "not yet type-checked") {
			selfImport = true
		} else {
			t.Errorf("unexpected load diagnostic: %s", d)
		}
	}
	if !selfImport {
		t.Errorf("no diagnostic for a/self_test.go importing its own package; got %v", diags)
	}
	for _, p := range pkgs {
		if p.ImportPath != "example.com/m/b" {
			continue
		}
		if len(p.Files) != 1 || filepath.Base(p.Fset.Position(p.Files[0].Pos()).Filename) != "bad.go" {
			t.Errorf("package b loaded %d files, want bad.go alone", len(p.Files))
		}
	}
}
