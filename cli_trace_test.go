package mobicol

// End-to-end tests of mdgtrace: drive real planner traces through the
// summary/tree/diff/folded subcommands and enforce the acceptance
// contract — deterministic subcommand output is byte-identical across
// same-seed runs, and diff's exit codes distinguish identical traces,
// semantic divergence, and operational errors.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mobicol/internal/obs"
)

// runExitCLI runs a built cmd binary and returns its exit code instead
// of failing on non-zero exits (for tools whose exit code is the API).
func runExitCLI(t *testing.T, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin := filepath.Join(buildCLIs(t), name)
	cmd := exec.Command(bin, args...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

// tracePair records two same-seed planner traces plus one from a
// different deployment.
func tracePair(t *testing.T) (same1, same2, other string) {
	t.Helper()
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.json")
	otherNet := filepath.Join(dir, "net2.json")
	runCLI(t, nil, "wsngen", "-n", "60", "-seed", "5", "-o", netPath)
	runCLI(t, nil, "wsngen", "-n", "60", "-seed", "6", "-o", otherNet)
	same1 = filepath.Join(dir, "a1.jsonl")
	same2 = filepath.Join(dir, "a2.jsonl")
	other = filepath.Join(dir, "b.jsonl")
	runCLI(t, nil, "mdgplan", "-net", netPath, "-trace", same1, "-metrics")
	runCLI(t, nil, "mdgplan", "-net", netPath, "-trace", same2, "-metrics")
	runCLI(t, nil, "mdgplan", "-net", otherNet, "-trace", other, "-metrics")
	return same1, same2, other
}

func TestCLITraceSummaryDeterministic(t *testing.T) {
	same1, same2, _ := tracePair(t)
	out1, _ := runCLI(t, nil, "mdgtrace", "summary", same1)
	out2, _ := runCLI(t, nil, "mdgtrace", "summary", same2)
	if out1 != out2 {
		t.Fatalf("summary output differs across same-seed runs:\n--- a ---\n%s--- b ---\n%s", out1, out2)
	}
	for _, want := range []string{"phase", "plan", "cover", "tsp", "metric", "planner.stops"} {
		if !strings.Contains(out1, want) {
			t.Errorf("summary missing %q:\n%s", want, out1)
		}
	}
	// tree shares the determinism contract.
	tree1, _ := runCLI(t, nil, "mdgtrace", "tree", same1)
	tree2, _ := runCLI(t, nil, "mdgtrace", "tree", same2)
	if tree1 != tree2 {
		t.Fatalf("tree output differs across same-seed runs:\n%s\nvs\n%s", tree1, tree2)
	}
	if !strings.Contains(tree1, "plan id=1") || !strings.Contains(tree1, "  cover id=") {
		t.Errorf("tree structure missing expected spans:\n%s", tree1)
	}
}

func TestCLITraceSummaryTiming(t *testing.T) {
	same1, _, _ := tracePair(t)
	out, _ := runCLI(t, nil, "mdgtrace", "summary", "-timing", same1)
	if !strings.Contains(out, "total_ns") || !strings.Contains(out, "self_ns") {
		t.Fatalf("-timing summary missing wall-clock columns:\n%s", out)
	}
}

func TestCLITraceDiffExitCodes(t *testing.T) {
	same1, same2, other := tracePair(t)

	out, _, code := runExitCLI(t, "mdgtrace", "diff", same1, same2)
	if code != 0 || !strings.Contains(out, "identical") {
		t.Fatalf("same-seed diff: code %d, out %q", code, out)
	}

	out, _, code = runExitCLI(t, "mdgtrace", "diff", same1, other)
	if code != 1 || !strings.Contains(out, "diverge") {
		t.Fatalf("different-seed diff: code %d, want 1; out %q", code, out)
	}

	_, errOut, code := runExitCLI(t, "mdgtrace", "diff", same1, filepath.Join(t.TempDir(), "missing.jsonl"))
	if code != 2 || !strings.Contains(errOut, "mdgtrace:") {
		t.Fatalf("missing file diff: code %d, want 2; stderr %q", code, errOut)
	}

	_, _, code = runExitCLI(t, "mdgtrace", "bogus")
	if code != 2 {
		t.Fatalf("unknown subcommand: code %d, want 2", code)
	}
}

// assertCanonicalTrace parses every line of a trace file through
// obs.CanonicalLine and asserts the named span was recorded.
func assertCanonicalTrace(t *testing.T, path, wantSpan string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range bytes.Split(raw, []byte("\n")) {
		c, err := obs.CanonicalLine(line)
		if err != nil {
			t.Fatalf("%s: uncanonicalisable line %q: %v", path, line, err)
		}
		if bytes.Contains(c, []byte(`"span":"`+wantSpan+`"`)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s: no %q span in trace:\n%s", path, wantSpan, raw)
	}
}

// TestCLITraceFlagsNewTools smoke-tests the -trace/-metrics wiring of
// wsngen and mdgbench: both must write canonical JSONL traces.
func TestCLITraceFlagsNewTools(t *testing.T) {
	dir := t.TempDir()

	wsnTrace := filepath.Join(dir, "wsngen.jsonl")
	_, errOut := runCLI(t, nil, "wsngen", "-n", "30", "-seed", "8",
		"-trace", wsnTrace, "-metrics", "-o", filepath.Join(dir, "net.json"))
	assertCanonicalTrace(t, wsnTrace, "deploy")
	if !strings.Contains(errOut, "wsn.avg_degree") {
		t.Errorf("wsngen -metrics summary missing gauge:\n%s", errOut)
	}

	benchTrace := filepath.Join(dir, "bench.jsonl")
	out, errOut := runCLI(t, nil, "mdgbench", "-e", "E10", "-trials", "1",
		"-trace", benchTrace, "-metrics")
	assertCanonicalTrace(t, benchTrace, "experiment")
	if !strings.Contains(errOut, "experiment") {
		t.Errorf("mdgbench -metrics summary missing the experiment span:\n%s", errOut)
	}
	if !strings.HasPrefix(out, "E10 — ") {
		t.Fatalf("mdgbench -trace must not change the table output:\n%s", out)
	}
}

func TestCLITraceFolded(t *testing.T) {
	same1, _, _ := tracePair(t)
	out, _ := runCLI(t, nil, "mdgtrace", "folded", same1)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("folded output too small:\n%s", out)
	}
	foundNested := false
	for _, line := range lines {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("folded line not 'stack weight': %q", line)
		}
		if !strings.HasPrefix(parts[0], "plan") {
			t.Errorf("stack not rooted at plan: %q", line)
		}
		if strings.Contains(parts[0], ";") {
			foundNested = true
		}
	}
	if !foundNested {
		t.Errorf("no nested stacks in folded output:\n%s", out)
	}
}
