package mobicol

// End-to-end tests of mdgratchet, fed canned `go test -cover` output on
// stdin.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runRatchet runs the built mdgratchet binary with stdin (nil for none).
func runRatchet(t *testing.T, stdin []byte, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "mdgratchet"), args...)
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

	out, errOut, code := runRatchet(t, []byte(healthyCover), "cover", "-baseline", ratchet, "-update")
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

	out, errOut, code = runRatchet(t, []byte(healthyCover), "cover", "-baseline", ratchet)
	if code != 0 || !strings.Contains(out, "hold against") {
		t.Fatalf("cover compare: code %d, out %q, stderr %q", code, out, errOut)
	}

	const regressed = "ok  \tmobicol/internal/geom\t0.011s\tcoverage: 60.0% of statements\n" +
		"ok  \tmobicol/internal/wsn\t0.020s\tcoverage: 74.1% of statements\n"
	_, stderr, code := runRatchet(t, []byte(regressed), "cover", "-baseline", ratchet)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "below the coverage ratchet") || !strings.Contains(stderr, "internal/geom") {
		t.Fatalf("cover regression stderr:\n%s", stderr)
	}
}

// TestCLIRatchetOperationalErrors pins that input the ratchet cannot
// judge is an operational error (exit 2), not a regression (1): a missing
// baseline (reported with the -update hint), an empty stdin or a FAIL
// line in the piped `go test` output.
func TestCLIRatchetOperationalErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	cases := []struct {
		name, stdin, want string
		args              []string
	}{
		{"cover-missing-baseline", healthyCover, "-update", []string{"cover", "-baseline", missing}},
		{"cover-empty-stdin", "", "no coverage lines", []string{"cover"}},
		{"cover-fail-line", healthyCover + "FAIL\tmobicol/internal/geom\t0.1s\n", "failing test run", []string{"cover"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, code := runRatchet(t, []byte(tc.stdin), tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, errOut)
			}
			if !strings.Contains(errOut, "mdgratchet cover:") || !strings.Contains(errOut, tc.want) {
				t.Fatalf("operational error must be reported on stderr with %q:\n%s", tc.want, errOut)
			}
		})
	}
}

// TestCLIRatchetUnknownKind pins that a kind the tool does not know,
// such as the retired escape and perf ratchets, is a usage error (exit 2).
func TestCLIRatchetUnknownKind(t *testing.T) {
	for _, kind := range []string{"escape", "perf"} {
		_, errOut, code := runRatchet(t, nil, kind)
		if code != 2 || !strings.Contains(errOut, `unknown kind "`+kind+`"`) {
			t.Errorf("mdgratchet %s: exit %d, want 2 naming the kind; stderr:\n%s", kind, code, errOut)
		}
	}
}
