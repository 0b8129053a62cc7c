package lint

import (
	"strings"
	"testing"
)

func TestPureCheckAnalyzer(t *testing.T) {
	checkFixture(t, PureCheckAnalyzer(), "purecheck.go", "mobicol/internal/fixture")
}

func TestCtxFlowAnalyzer(t *testing.T) {
	checkFixture(t, CtxFlowAnalyzer(), "ctxflow.go", "mobicol/internal/fixture")
}

// TestErrFlowAnalyzer drives errcheck's dead rule (the former errflow
// analyzer) over its own fixture.
func TestErrFlowAnalyzer(t *testing.T) {
	checkFixture(t, ErrCheckAnalyzer(), "errflow.go", "mobicol/internal/fixture")
}

// TestMalformedAllowMutIsReported pins the PR 6 idiom for the new
// directive: allow-mut without a parenthesized reason is itself an
// unsuppressable mdglint finding.
func TestMalformedAllowMutIsReported(t *testing.T) {
	const src = `package p

//mdglint:allow-mut
func f(xs []int) { xs[0] = 1 }
`
	pkg := loadSource(t, "p.go", src)
	findings := Run([]*Package{pkg}, Analyzers())
	var malformed int
	for _, f := range findings {
		if f.Analyzer == "mdglint" && strings.Contains(f.Message, "allow-mut") {
			malformed++
		}
	}
	if malformed != 1 {
		t.Errorf("want 1 malformed allow-mut finding, got %d: %v", malformed, findings)
	}
}

// TestErrFlowSkipsTestFiles pins the dead rule's test-file exemption.
func TestErrFlowSkipsTestFiles(t *testing.T) {
	const src = `package p

func step() error { return nil }

func f() error {
	err := step()
	err = step()
	return err
}
`
	pkg := loadSource(t, "p_test.go", src)
	if fs := Run([]*Package{pkg}, []*Analyzer{ErrCheckAnalyzer()}); len(fs) != 0 {
		t.Errorf("errcheck fired in a test file: %v", fs)
	}
}

// TestErrFlowSkipsFreeVariablesInClosures pins the recursive-walker
// shape: a closure assigning an enclosing error variable it also reads
// on re-entry must not be treated as a linear dead store.
func TestErrFlowSkipsFreeVariablesInClosures(t *testing.T) {
	const src = `package p

func emit(string) (int, error) { return 0, nil }

type node struct{ children []*node }

func walkAll(root *node) error {
	var err error
	var walk func(n *node)
	walk = func(n *node) {
		if err != nil {
			return
		}
		_, err = emit("visit")
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(root)
	return err
}
`
	pkg := loadSource(t, "p.go", src)
	if fs := Run([]*Package{pkg}, []*Analyzer{ErrCheckAnalyzer()}); len(fs) != 0 {
		t.Errorf("errcheck flagged a recursive closure's free variable: %v", fs)
	}
}

// TestCtxFlowReachesInitRegisteredAdapters pins the activation seam: an
// adapter dispatched through a func field is only activated by a
// registration init no Plan path reaches, yet ctxflow must still check
// it — while a same-signature closure created by an unreachable driver
// stays out of scope.
func TestCtxFlowReachesInitRegisteredAdapters(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"internal/engine/engine.go": `package engine

import "context"

// Scenario is the shared input.
type Scenario struct{ Items []int }

// Planner is the seam.
type Planner interface {
	Plan(ctx context.Context, sc Scenario) error
}

type planFunc struct {
	run func(ctx context.Context, sc Scenario) error
}

func (p *planFunc) Plan(ctx context.Context, sc Scenario) error {
	return p.run(ctx, sc)
}

var registry []*planFunc

func init() {
	registry = append(registry, &planFunc{run: strand})
}

// strand never consults ctx but loops over its input.
func strand(ctx context.Context, sc Scenario) error {
	total := 0
	for _, v := range sc.Items {
		total += v
	}
	_ = total
	return nil
}

// driver is not on any Plan path; its same-signature closure must not
// be dragged in by the indirect-call signature match.
func driver() {
	f := func(ctx context.Context, sc Scenario) error {
		_ = context.Background()
		return nil
	}
	_ = f
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
	findings := Run(pkgs, []*Analyzer{CtxFlowAnalyzer()})
	var stranded, laundered int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "never consults it"):
			stranded++
		case strings.Contains(f.Message, "cancellation chain"):
			laundered++
		}
	}
	if stranded != 1 {
		t.Errorf("want 1 stranding finding on the init-registered adapter, got %d: %v", stranded, findings)
	}
	if laundered != 0 {
		t.Errorf("unreachable driver closure was flagged %d time(s): %v", laundered, findings)
	}
}

// TestPureCheckCrossPackage pins the interprocedural descent: a Plan
// root in one package makes a helper's write in another package a
// finding, and the allow-mut boundary stops it.
func TestPureCheckCrossPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"internal/engine/engine.go": `package engine

import (
	"context"

	"example.com/m/internal/wsn"
)

// Scenario is the shared input.
type Scenario struct{ Net *wsn.Network }

// Planner is the seam.
type Planner interface {
	Plan(ctx context.Context, sc Scenario) error
}

type direct struct{}

func (d *direct) Plan(ctx context.Context, sc Scenario) error {
	wsn.Touch(sc.Net)
	wsn.Audited(sc.Net)
	return ctx.Err()
}
`,
		"internal/wsn/wsn.go": `package wsn

// Network is the shared payload.
type Network struct{ Nodes []int }

// Touch mutates shared memory two hops from the root.
func Touch(nw *Network) {
	nw.Nodes[0] = 1
}

// Audited is a reasoned boundary.
//
//mdglint:allow-mut(test boundary: caller serializes)
func Audited(nw *Network) {
	nw.Nodes[0] = 2
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
	findings := Run(pkgs, []*Analyzer{PureCheckAnalyzer()})
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding (Touch's write), got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if !strings.HasSuffix(f.Pos.Filename, "wsn.go") || !strings.Contains(f.Message, "writes memory reachable") {
		t.Errorf("finding is not Touch's write: %s", f)
	}
}
