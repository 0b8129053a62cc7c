package mobicol

// End-to-end tests for the verification surface of the CLIs: the oracle
// checks the planning/simulation tools always run, mdgbench's experiment
// selector and markdown report, and wsngen's placement families. Companion to
// cli_test.go, sharing its buildCLIs/runCLI helpers.

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLIErr runs a CLI expecting a non-zero exit and returns its output
// and exit code. The inverse of runCLI, for the tools' refusal paths.
func runCLIErr(t *testing.T, stdin []byte, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v: expected failure, exited 0\nstdout: %s", name, args, outBuf.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: did not run: %v", name, args, err)
	}
	return outBuf.String(), errBuf.String(), ee.ExitCode()
}

func TestCLIWsngenPlacements(t *testing.T) {
	for _, placement := range []string{"uniform", "grid-jitter", "clustered", "ring", "corridor"} {
		net, stderr := runCLI(t, nil, "wsngen",
			"-n", "40", "-side", "150", "-range", "30", "-seed", "3", "-placement", placement)
		if !strings.Contains(net, `"sensors"`) || !strings.Contains(net, `"range"`) {
			t.Fatalf("%s: output is not a network JSON:\n%s", placement, net)
		}
		if !strings.Contains(stderr, "avg degree") {
			t.Fatalf("%s: missing deployment summary on stderr:\n%s", placement, stderr)
		}
		// Every placement's output must feed straight into the planner.
		runCLI(t, []byte(net), "mdgplan", "-algo", "shdg")
	}
}

func TestCLIWsngenUnknownPlacement(t *testing.T) {
	_, stderr, code := runCLIErr(t, nil, "wsngen", "-placement", "spiral")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown placement") {
		t.Fatalf("stderr missing diagnostic:\n%s", stderr)
	}
}

// TestCLIPlanCheck pins mdgplan's oracle check: every algorithm passes
// it on a healthy deployment and says so in the report.
func TestCLIPlanCheck(t *testing.T) {
	net, _ := runCLI(t, nil, "wsngen", "-n", "60", "-side", "150", "-range", "30", "-seed", "5")
	for _, algo := range []string{"shdg", "visit-all", "cla"} {
		out, _ := runCLI(t, []byte(net), "mdgplan", "-algo", algo)
		if !strings.Contains(out, "check:      ok") {
			t.Fatalf("%s: mdgplan output missing the check confirmation line:\n%s", algo, out)
		}
	}
}

func TestCLILifetimeCheck(t *testing.T) {
	net, _ := runCLI(t, nil, "wsngen", "-n", "60", "-seed", "6")
	out, _ := runCLI(t, []byte(net), "mdglife", "-battery", "0.01")
	if !strings.Contains(out, "check: ok") {
		t.Fatalf("mdglife output missing the check confirmation line:\n%s", out)
	}
}

// TestCLIReportSingleExperiment pins mdgbench's markdown report: the
// document header, then one "## <id> — <title>" section per table.
func TestCLIReportSingleExperiment(t *testing.T) {
	out, _ := runCLI(t, nil, "mdgbench", "-format", "md", "-e", "E2", "-trials", "1")
	for _, want := range []string{"# mobicol reproduction report", "## E2 — tour length vs number of sensors", "|---|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mdgbench -format md output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIReportUnknownExperiment pins that an unknown experiment ID is a
// usage error (exit 2), reported before any table runs.
func TestCLIReportUnknownExperiment(t *testing.T) {
	out, stderr, code := runCLIErr(t, nil, "mdgbench", "-e", "E2,E99", "-trials", "1")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown experiment "E99"`) || out != "" {
		t.Fatalf("want the diagnostic and no table; stdout:\n%s\nstderr:\n%s", out, stderr)
	}
}

func TestCLIBenchUnknownFormat(t *testing.T) {
	_, stderr, code := runCLIErr(t, nil, "mdgbench", "-e", "E2", "-trials", "1", "-format", "bogus")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown -format "bogus"`) {
		t.Fatalf("stderr missing diagnostic:\n%s", stderr)
	}
}
