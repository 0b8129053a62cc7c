package mobicol

// End-to-end tests of mdgratchet, one kind at a time. Coverage is fed
// canned `go test -cover` output on stdin and escape runs against a
// throwaway module.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runRatchet runs the built mdgratchet binary with stdin (nil for none)
// and, when dir is set, the working directory set to dir (escape invokes
// `go build` relative to its cwd).
func runRatchet(t *testing.T, dir string, stdin []byte, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "mdgratchet"), args...)
	cmd.Dir = dir
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("mdgratchet %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

const healthyCover = "ok  \tmobicol/internal/geom\t0.011s\tcoverage: 82.5% of statements\n" +
	"ok  \tmobicol/internal/wsn\t0.020s\tcoverage: 74.1% of statements\n" +
	"?   \tmobicol/cmd/wsngen\t[no test files]\n"

// TestCLICoverageRatchet drives the cover kind through its whole
// lifecycle with canned `go test -cover` output: write floors, hold
// against them, then fail when a package regresses.
func TestCLICoverageRatchet(t *testing.T) {
	ratchet := filepath.Join(t.TempDir(), "ratchet.txt")

	out, errOut, code := runRatchet(t, "", []byte(healthyCover), "cover", "-baseline", ratchet, "-update")
	if code != 0 || !strings.Contains(out, "wrote 2 floors") {
		t.Fatalf("cover -update: code %d, out %q, stderr %q", code, out, errOut)
	}
	raw, err := os.ReadFile(ratchet)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "mobicol/internal/geom 81.5") {
		t.Fatalf("ratchet file missing margin-adjusted floor:\n%s", raw)
	}

	out, errOut, code = runRatchet(t, "", []byte(healthyCover), "cover", "-baseline", ratchet)
	if code != 0 || !strings.Contains(out, "hold against") {
		t.Fatalf("cover compare: code %d, out %q, stderr %q", code, out, errOut)
	}

	const regressed = "ok  \tmobicol/internal/geom\t0.011s\tcoverage: 60.0% of statements\n" +
		"ok  \tmobicol/internal/wsn\t0.020s\tcoverage: 74.1% of statements\n"
	_, stderr, code := runRatchet(t, "", []byte(regressed), "cover", "-baseline", ratchet)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "below the coverage ratchet") || !strings.Contains(stderr, "internal/geom") {
		t.Fatalf("cover regression stderr:\n%s", stderr)
	}
}

// writeEscapeModule lays down a single-package module with two known
// escapes (a composite literal and a make, both returned to the caller).
func writeEscapeModule(t *testing.T) (dir, srcPath string) {
	t.Helper()
	dir = t.TempDir()
	gomod := "module example.com/esc\n\ngo 1.21\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package p

type Buf struct{ xs []int }

// NewBuf's literal and make both escape: the pointer is returned.
func NewBuf(n int) *Buf {
	return &Buf{xs: make([]int, n)}
}
`
	srcPath = filepath.Join(dir, "p", "p.go")
	if err := os.WriteFile(srcPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, srcPath
}

func TestCLIEscapeRatchet(t *testing.T) {
	dir, srcPath := writeEscapeModule(t)
	baseline := filepath.Join(dir, "baseline.txt")

	// Create the baseline from the initial module.
	out, errOut, code := runRatchet(t, dir, nil, "escape", "-baseline", baseline, "-update", "./p")
	if code != 0 {
		t.Fatalf("-update exited %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wrote") {
		t.Fatalf("-update output missing confirmation: %q", out)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	if !strings.Contains(string(data), "example.com/esc/p p.go escapes-to-heap") {
		t.Fatalf("baseline missing the known escapes:\n%s", data)
	}

	// Clean compare holds.
	out, errOut, code = runRatchet(t, dir, nil, "escape", "-baseline", baseline, "./p")
	if code != 0 {
		t.Fatalf("clean compare exited %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "hold against the baseline") {
		t.Fatalf("clean compare output missing hold message: %q", out)
	}

	// Inject a regression: a named local forced to the heap.
	leak := `
// Leak forces x to the heap: the returned pointer outlives the frame.
func Leak() *int {
	x := 3
	return &x
}
`
	f, err := os.OpenFile(srcPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(leak); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, errOut, code = runRatchet(t, dir, nil, "escape", "-baseline", baseline, "./p")
	if code != 1 {
		t.Fatalf("regressed compare exited %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "p.go") || !strings.Contains(errOut, "moved-to-heap") {
		t.Fatalf("regression diagnostics must cite the file and kind:\n%s", errOut)
	}
	if !strings.Contains(errOut, "above the escape baseline") {
		t.Fatalf("regression summary line missing:\n%s", errOut)
	}
}

// TestCLIRatchetOperationalErrors pins that input a ratchet cannot judge
// is an operational error (exit 2), not a regression (1), for every
// kind: a missing baseline (reported with the -update hint), and for
// cover an empty stdin or a FAIL line in the piped `go test` output.
func TestCLIRatchetOperationalErrors(t *testing.T) {
	escDir, _ := writeEscapeModule(t)
	missing := filepath.Join(t.TempDir(), "nope")
	cases := []struct {
		name, dir, stdin, want string
		args                   []string
	}{
		{"cover-missing-baseline", "", healthyCover, "-update", []string{"cover", "-baseline", missing}},
		{"escape-missing-baseline", escDir, "", "-update", []string{"escape", "-baseline", missing, "./p"}},
		{"cover-empty-stdin", "", "", "no coverage lines", []string{"cover"}},
		{"cover-fail-line", "", healthyCover + "FAIL\tmobicol/internal/geom\t0.1s\n", "failing test run", []string{"cover"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, code := runRatchet(t, tc.dir, []byte(tc.stdin), tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, errOut)
			}
			if !strings.Contains(errOut, "mdgratchet "+tc.args[0]+":") || !strings.Contains(errOut, tc.want) {
				t.Fatalf("operational error must be reported on stderr with %q:\n%s", tc.want, errOut)
			}
		})
	}
}

// TestCLIRatchetUnknownKind pins that a kind the tool does not know,
// such as the retired perf ratchet, is a usage error (exit 2).
func TestCLIRatchetUnknownKind(t *testing.T) {
	_, errOut, code := runRatchet(t, "", nil, "perf")
	if code != 2 || !strings.Contains(errOut, `unknown kind "perf"`) {
		t.Fatalf("mdgratchet perf: exit %d, want 2 naming the kind; stderr:\n%s", code, errOut)
	}
}
