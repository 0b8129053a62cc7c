package mobicol

// End-to-end tests of the four CLI tools: build each binary once, then
// drive the documented pipelines (generate → plan → simulate) through
// real process boundaries, JSON files and pipes included.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mobicol/internal/lint"
	"mobicol/internal/obs"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles the cmd binaries into a shared temp dir once.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "mobicol-cli")
		if cliErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", cliDir+string(filepath.Separator), "./cmd/...")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			cliErr = err
			t.Logf("go build output:\n%s", out.String())
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, stdin []byte, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, errBuf.String())
	}
	return outBuf.String(), errBuf.String()
}

// TestNoDanglingToolNames checks that every cmd/<tool>, `make <target>`
// and UPPER_CASE.json or .txt file the build, CI and docs name exists,
// so a deleted or renamed binary, Makefile target or committed artifact
// cannot linger in a Makefile target, a CI step or a documented command.
func TestNoDanglingToolNames(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no CI workflows found: %v", err)
	}
	files = append(files, "Makefile", "README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	toolRE := regexp.MustCompile(`cmd/([a-z][a-z0-9_-]*)`)
	makeRE := regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	fileRE := regexp.MustCompile(`\b[A-Z][A-Z0-9]*(?:_[A-Za-z0-9]+)*\.(?:json|txt)\b`)
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range toolRE.FindAllStringSubmatch(string(raw), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", name, m[0])
			}
		}
		for _, m := range makeRE.FindAllStringSubmatch(string(raw), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names %q, which is not a Makefile target", name, m[0])
			}
		}
		for _, f := range fileRE.FindAllString(string(raw), -1) {
			if _, err := os.Stat(f); err != nil {
				t.Errorf("%s names %s, which is not a file at the repository root", name, f)
			}
		}
	}
}

// TestReadmeAnalyzerTable checks that the bold names in README's
// analyzer table are lint.Analyzers()' names in the same order, so a
// deleted or added analyzer cannot leave the documented inventory behind.
func TestReadmeAnalyzerTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRE := regexp.MustCompile(`(?m)^\| \*\*([a-z]+)\*\* +\|`)
	var got []string
	for _, m := range rowRE.FindAllStringSubmatch(string(raw), -1) {
		got = append(got, m[1])
	}
	var want []string
	for _, a := range lint.Analyzers() {
		want = append(want, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("README analyzer table lists %v, lint.Analyzers() is %v", got, want)
	}
}

func TestCLIPipelinePlan(t *testing.T) {
	net, _ := runCLI(t, nil, "wsngen", "-n", "80", "-side", "150", "-range", "30", "-seed", "4")
	out, _ := runCLI(t, []byte(net), "mdgplan", "-algo", "shdg", "-k", "2")
	for _, want := range []string{"algorithm:", "stops:", "tour:", "served:     80/80", "collectors: 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mdgplan output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIPlanArtifacts(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.json")
	svgPath := filepath.Join(dir, "tour.svg")
	jsonPath := filepath.Join(dir, "plan.json")
	runCLI(t, nil, "wsngen", "-n", "60", "-seed", "7", "-o", netPath)
	runCLI(t, nil, "mdgplan", "-net", netPath, "-svg", svgPath, "-json", jsonPath)
	svg, err := os.ReadFile(svgPath)
	if err != nil || !bytes.HasPrefix(svg, []byte("<svg")) {
		t.Fatalf("svg artifact bad: %v", err)
	}
	plan, err := os.ReadFile(jsonPath)
	if err != nil || !bytes.Contains(plan, []byte(`"stops"`)) {
		t.Fatalf("plan artifact bad: %v", err)
	}
}

func TestCLIObstaclePipeline(t *testing.T) {
	dir := t.TempDir()
	obstPath := filepath.Join(dir, "obst.json")
	netPath := filepath.Join(dir, "net.json")
	course := `{"obstacles":[[[60,55],[95,55],[95,90],[60,90]]]}`
	if err := os.WriteFile(obstPath, []byte(course), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, nil, "wsngen", "-n", "70", "-seed", "9", "-obstacles", obstPath, "-o", netPath)
	out, _ := runCLI(t, nil, "mdgplan", "-net", netPath, "-obstacles", obstPath)
	if !strings.Contains(out, "obstacles:  1") || !strings.Contains(out, "detour") {
		t.Fatalf("obstacle mode output:\n%s", out)
	}
}

// TestCLIUnknownAlgo pins the algorithm-selection error path: an
// unregistered -algo name must exit 2 (usage error, distinct from the
// runtime-failure exit 1) and the message must list the registered
// planner names so the fix is in the error itself.
func TestCLIUnknownAlgo(t *testing.T) {
	const want = `unknown algorithm "bogus" (registered: cla, exact, shdg, sweep, visit-all, warm)`
	cases := []struct {
		name string
		args []string
	}{
		{"mdgplan", []string{"-algo", "bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runExitCLI(t, tc.name, tc.args...)
			if code != 2 {
				t.Fatalf("%s %v exited %d, want 2\nstderr: %s", tc.name, tc.args, code, stderr)
			}
			if !strings.Contains(stderr, want) {
				t.Fatalf("%s stderr missing %q:\n%s", tc.name, want, stderr)
			}
		})
	}
}

func TestCLILifetime(t *testing.T) {
	net, _ := runCLI(t, nil, "wsngen", "-n", "100", "-seed", "2")
	out, _ := runCLI(t, []byte(net), "mdglife", "-battery", "0.01")
	for _, want := range []string{"shdg", "cla", "straight-line", "static-sink", "residual p50/p90/p99(J)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mdglife output missing %q:\n%s", want, out)
		}
	}
}

// TestCLITraceDeterminism is the acceptance regression for the obs trace
// contract: two mdgplan runs over the same deployment must produce
// byte-identical JSONL traces once the wall-clock timing fields are
// stripped, and the trace must actually cover the planner phases.
func TestCLITraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.json")
	runCLI(t, nil, "wsngen", "-n", "90", "-seed", "11", "-o", netPath)

	canonical := func(path string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range bytes.Split(raw, []byte("\n")) {
			c, err := obs.CanonicalLine(line)
			if err != nil {
				t.Fatalf("unparseable trace line %q: %v", line, err)
			}
			if c != nil {
				lines = append(lines, string(c))
			}
		}
		return lines
	}

	tracePaths := [2]string{filepath.Join(dir, "t1.jsonl"), filepath.Join(dir, "t2.jsonl")}
	for _, p := range tracePaths {
		runCLI(t, nil, "mdgplan", "-net", netPath, "-algo", "shdg", "-trace", p, "-metrics")
	}
	first, second := canonical(tracePaths[0]), canonical(tracePaths[1])
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d lines", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("canonical traces diverge at line %d:\n  %s\n  %s", i+1, first[i], second[i])
		}
	}

	spans := map[string]bool{}
	metricNames := map[string]bool{}
	for _, line := range first {
		var ev struct {
			Ev     string `json:"ev"`
			Span   string `json:"span"`
			Metric string `json:"metric"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("canonical line not JSON: %q: %v", line, err)
		}
		switch ev.Ev {
		case "span":
			spans[ev.Span] = true
		case "metric":
			metricNames[ev.Metric] = true
		}
	}
	for _, want := range []string{"plan", "candidates", "cover", "tsp"} {
		if !spans[want] {
			t.Errorf("trace missing %q span; got spans %v", want, spans)
		}
	}
	if len(metricNames) < 5 {
		t.Errorf("want >= 5 distinct metrics in the trace, got %d: %v", len(metricNames), metricNames)
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	out, _ := runCLI(t, nil, "mdgbench", "-e", "E2", "-trials", "2")
	if !strings.Contains(out, "E2 — tour length vs number of sensors") {
		t.Fatalf("mdgbench output:\n%s", out)
	}
	csvOut, _ := runCLI(t, nil, "mdgbench", "-e", "E2", "-trials", "2", "-format", "csv")
	if !strings.HasPrefix(csvOut, "N,SHDG(m)") {
		t.Fatalf("mdgbench csv output:\n%s", csvOut)
	}
}
