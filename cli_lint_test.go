package mobicol

// End-to-end tests for the mdglint CLI: the -json finding format is a CI
// interface (one JSON object per line, stable field set), so it gets a
// golden test against a module with known findings.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runLintCLI runs mdglint in dir and returns stdout plus the exit code
// (mdglint exits 1 on findings, which is the expected case here).
func runLintCLI(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	bin := filepath.Join(buildCLIs(t), "mdglint")
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("mdglint %v: %v\nstderr: %s", args, err, errBuf.String())
	}
	return outBuf.String(), code
}

// lintFixtureModule writes a tiny module with exactly two findings — a
// floateq comparison and an errcheck drop — at known lines.
func lintFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/lintme\n\ngo 1.22\n")
	write("pkg/p.go", `package pkg

import "errors"

func fallible() error { return errors.New("boom") }

func drop() {
	fallible()
}

func eq(a, b float64) bool {
	return a == b
}
`)
	return dir
}

func TestLintCLIJSONGolden(t *testing.T) {
	dir := lintFixtureModule(t)
	out, code := runLintCLI(t, dir, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present)\noutput: %s", code, out)
	}

	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSON lines, want 2:\n%s", len(lines), out)
	}

	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var got []finding
	for _, line := range lines {
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		// The field set is the CI contract: nothing extra, nothing missing.
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"file", "line", "analyzer", "message"} {
			if _, ok := raw[key]; !ok {
				t.Errorf("JSON line missing %q field: %s", key, line)
			}
		}
		if len(raw) != 4 {
			t.Errorf("JSON line has %d fields, want exactly 4: %s", len(raw), line)
		}
		got = append(got, f)
	}

	if got[0].Analyzer != "errcheck" || got[0].Line != 8 {
		t.Errorf("first finding = %+v, want errcheck at line 8", got[0])
	}
	if got[1].Analyzer != "floateq" || got[1].Line != 12 {
		t.Errorf("second finding = %+v, want floateq at line 12", got[1])
	}
	for _, f := range got {
		if !strings.HasSuffix(f.File, filepath.Join("pkg", "p.go")) {
			t.Errorf("finding file %q does not end in pkg/p.go", f.File)
		}
	}
}

// TestLintCLITextMatchesJSON pins that the two output modes agree on the
// finding set: same files, lines, and analyzers, different rendering.
func TestLintCLITextMatchesJSON(t *testing.T) {
	dir := lintFixtureModule(t)
	text, codeText := runLintCLI(t, dir)
	jsonOut, codeJSON := runLintCLI(t, dir, "-json")
	if codeText != codeJSON {
		t.Fatalf("exit codes disagree: text %d, json %d", codeText, codeJSON)
	}
	textLines := strings.Split(strings.TrimSpace(text), "\n")
	jsonLines := strings.Split(strings.TrimSpace(jsonOut), "\n")
	if len(textLines) != len(jsonLines) {
		t.Fatalf("text mode has %d findings, json mode %d", len(textLines), len(jsonLines))
	}
}

// TestLintCLIJSONInterprocedural drives the call-graph-backed alloccheck
// end to end: it must flag an allocation inside a //mdglint:hotpath root
// at the offending line.
func TestLintCLIJSONInterprocedural(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/hotmod\n\ngo 1.22\n")
	write("par/par.go", `package par

func ForEach(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
`)
	write("pkg/p.go", `package pkg

import "example.com/hotmod/par"

var total int

func bump(i int) {
	total += i
}

//mdglint:hotpath
func Hot(n int) []int {
	return make([]int, n)
}

func Sum(n int) {
	par.ForEach(n, func(i int) {
		bump(i)
	})
}
`)

	out, code := runLintCLI(t, dir, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present)\noutput: %s", code, out)
	}
	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	byAnalyzer := map[string][]finding{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f)
	}

	allocs := byAnalyzer["alloccheck"]
	if len(allocs) != 1 || allocs[0].Line != 13 {
		t.Errorf("alloccheck findings = %+v, want exactly one at pkg/p.go:13 (the make in the hotpath root)", allocs)
	}
	if len(allocs) == 1 && !strings.Contains(allocs[0].Message, "make allocates") {
		t.Errorf("alloccheck message = %q, want a make-allocates diagnostic", allocs[0].Message)
	}
	for _, f := range allocs {
		if !strings.HasSuffix(f.File, filepath.Join("pkg", "p.go")) {
			t.Errorf("finding file %q does not end in pkg/p.go", f.File)
		}
	}
}

// TestLintCLIJSONLoadDiagnostics pins that type errors surface through
// -json as "load" findings and still fail the gate.
func TestLintCLIJSONLoadDiagnostics(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/broken\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte("package broken\n\nfunc f() int {\n\treturn \"nope\"\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runLintCLI(t, dir, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput: %s", code, out)
	}
	if !strings.Contains(out, `"analyzer":"load"`) {
		t.Errorf("no load diagnostic in JSON output:\n%s", out)
	}
}

// TestLintCLIJSONGlobalOrder pins the emission order contract: findings
// are globally sorted by (file, line, analyzer), so a load diagnostic
// lands between analyzer findings from neighboring files instead of
// being front-loaded.
func TestLintCLIJSONGlobalOrder(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/ordered\n\ngo 1.22\n")
	write("pkg/a/a.go", `package a

func eq(x, y float64) bool { return x == y }
`)
	write("pkg/b/b.go", `package b

func f() int { return "nope" }
`)
	write("pkg/c/c.go", `package c

import "errors"

func fallible() error { return errors.New("boom") }

func drop() { fallible() }
`)

	out, code := runLintCLI(t, dir, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput: %s", code, out)
	}
	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
	}
	var got []finding
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		got = append(got, f)
	}
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(got), out)
	}
	wantOrder := []string{"floateq", "load", "errcheck"}
	for i, f := range got {
		if f.Analyzer != wantOrder[i] {
			t.Errorf("finding %d is from %s, want %s (global file order)", i, f.Analyzer, wantOrder[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].File > got[i].File {
			t.Errorf("files out of order: %q emitted before %q", got[i-1].File, got[i].File)
		}
	}
}

// TestLintCLIRunSubset pins the -run flag: only the named analyzers
// execute, and an unknown name is a usage error (exit 2), not a silent
// no-op gate.
func TestLintCLIRunSubset(t *testing.T) {
	dir := lintFixtureModule(t)
	out, code := runLintCLI(t, dir, "-run", "floateq", "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput: %s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"analyzer":"floateq"`) {
		t.Errorf("-run floateq must emit exactly the floateq finding:\n%s", out)
	}
	if out, code := runLintCLI(t, dir, "-run", "nosuch"); code != 2 {
		t.Errorf("unknown analyzer name: exit code = %d, want 2\noutput: %s", code, out)
	}
}
