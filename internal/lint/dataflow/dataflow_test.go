package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"mobicol/internal/lint/callgraph"
)

// Graph returns the call graph the analysis was built over.
func (a *Analysis) Graph() *callgraph.Graph { return a.graph }

// load typechecks one source file as a package and returns the analysis
// over it.
func loadPkg(t *testing.T, src string) *Analysis {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("example.com/p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkgs := []Pkg{{Path: "example.com/p", Fset: fset, Files: []*ast.File{file}, Info: info}}
	cgPkgs := []callgraph.Pkg{{Path: "example.com/p", Fset: fset, Files: []*ast.File{file}, Info: info}}
	return New(pkgs, callgraph.Build(cgPkgs))
}

// summary finds the summary of the function whose display name contains
// name.
func summary(t *testing.T, a *Analysis, name string) *Summary {
	t.Helper()
	for _, n := range a.Graph().Nodes() {
		if strings.Contains(n.Name, name) {
			if s := a.Summary(n); s != nil {
				return s
			}
		}
	}
	t.Fatalf("no summary for %q", name)
	return nil
}

const header = `package p

type T struct {
	N  int
	Xs []int
	Ps []*T
}
`

func TestFreshResultIsClean(t *testing.T) {
	a := loadPkg(t, header+`
func F(p *T) *T {
	return &T{N: p.N}
}
`)
	s := summary(t, a, "p.F")
	if f := s.Flows[0]; f.D|f.R|f.V != 0 {
		t.Errorf("fresh struct of scalar reads is tainted: %+v", f)
	}
}

func TestAliasAndDeepResults(t *testing.T) {
	a := loadPkg(t, header+`
func Alias(p *T) *T { return p }

func Deep(p *T) []int { return p.Xs }
`)
	if f := summary(t, a, "p.Alias").Flows[0]; f.D != 1 {
		t.Errorf("alias result D = %b, want param bit 0", f.D)
	}
	if f := summary(t, a, "p.Deep").Flows[0]; f.R != 1 || f.D != 0 {
		t.Errorf("deep result = %+v, want R-only on param bit 0", f)
	}
}

// TestPerResultFlows pins the per-position flow masks: the error slot of
// a (value, error) pair must not inherit the value's taint.
func TestPerResultFlows(t *testing.T) {
	a := loadPkg(t, header+`
func Both(p *T) (*T, error) {
	return p, nil
}
`)
	s := summary(t, a, "p.Both")
	if f := s.Flows[0]; f.D != 1 {
		t.Errorf("value result = %+v, want D on param bit 0", f)
	}
	if f := s.Flows[1]; f.D|f.R|f.V != 0 {
		t.Errorf("error result tainted: %+v", f)
	}
}

func TestWritesThroughParam(t *testing.T) {
	a := loadPkg(t, header+`
func Field(p *T) { p.N = 1 }

func Elem(p *T) { p.Xs[0] = 1 }
`)
	sf := summary(t, a, "p.Field")
	if len(sf.Writes) != 1 || sf.Writes[0].D != 1 {
		t.Errorf("field store writes = %+v, want one D-write on bit 0", sf.Writes)
	}
	se := summary(t, a, "p.Elem")
	if len(se.Writes) != 1 || se.Writes[0].R != 1 {
		t.Errorf("element store writes = %+v, want one R-write on bit 0", se.Writes)
	}
}

func TestLocalWritesAreSilent(t *testing.T) {
	a := loadPkg(t, header+`
func Local(p *T) int {
	buf := make([]int, 4)
	buf[0] = p.N
	q := &T{}
	q.N = 2
	return buf[0] + q.N
}
`)
	if ws := summary(t, a, "p.Local").Writes; len(ws) != 0 {
		t.Errorf("writes to fresh memory recorded: %+v", ws)
	}
}

func TestRetainIntoGlobal(t *testing.T) {
	a := loadPkg(t, header+`
var keep []*T

func Stash(p *T) {
	keep = append(keep, p)
}
`)
	s := summary(t, a, "p.Stash")
	if len(s.Retains) == 0 {
		t.Fatalf("no retention recorded for the global stash")
	}
}

// TestSCCFixpoint pins the bottom-up fixpoint over a recursion cycle:
// a parameter returned through mutual recursion taints both flows.
func TestSCCFixpoint(t *testing.T) {
	a := loadPkg(t, header+`
func Ping(p *T, n int) *T {
	if n == 0 {
		return p
	}
	return Pong(p, n-1)
}

func Pong(p *T, n int) *T {
	return Ping(p, n)
}
`)
	if f := summary(t, a, "p.Ping").Flows[0]; f.D != 1 {
		t.Errorf("Ping result = %+v, want D through the cycle", f)
	}
	if f := summary(t, a, "p.Pong").Flows[0]; f.D != 1 {
		t.Errorf("Pong result = %+v, want D through the cycle", f)
	}
}

// TestClosureWriteFoldsIntoEnclosing pins that a captured-parameter
// write inside a func literal lands in the enclosing summary.
func TestClosureWriteFoldsIntoEnclosing(t *testing.T) {
	a := loadPkg(t, header+`
func Indirect(p *T) {
	f := func() { p.N = 1 }
	f()
}
`)
	s := summary(t, a, "p.Indirect")
	if len(s.Writes) == 0 || s.Writes[0].D != 1 {
		t.Errorf("closure write missing from enclosing summary: %+v", s.Writes)
	}
}

// TestAppendScalarBarrier pins the copy idiom: appending scalar elements
// out of a tainted slice yields an untainted fresh slice, while
// appending reference elements keeps the taint.
func TestAppendScalarBarrier(t *testing.T) {
	a := loadPkg(t, header+`
func CopyInts(p *T) []int {
	return append([]int(nil), p.Xs...)
}

func CopyPtrs(p *T) []*T {
	return append([]*T(nil), p.Ps...)
}
`)
	if f := summary(t, a, "p.CopyInts").Flows[0]; f.D|f.R|f.V != 0 {
		t.Errorf("scalar copy tainted: %+v", f)
	}
	if f := summary(t, a, "p.CopyPtrs").Flows[0]; f.V == 0 {
		t.Errorf("pointer copy lost the taint: %+v", f)
	}
}

func TestCallFlowRecordsArgumentTaint(t *testing.T) {
	a := loadPkg(t, header+`
func Outer(p *T) { inner(p.Xs) }

func inner(xs []int) { _ = len(xs) }
`)
	s := summary(t, a, "p.Outer")
	var found bool
	for _, cf := range s.Calls {
		if strings.Contains(cf.Callee.Name, "inner") && cf.Param == 0 && cf.R == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no CallFlow with R-taint into inner: %+v", s.Calls)
	}
}

// TestByValueStructSeedsContents pins the Scenario shape: a by-value
// struct parameter carrying references seeds at contents level, and a
// reference loaded out of it comes back deep-tainted.
func TestByValueStructSeedsContents(t *testing.T) {
	a := loadPkg(t, header+`
type Sc struct{ P *T }

func Use(sc Sc) *T { return sc.P }
`)
	if f := summary(t, a, "p.Use").Flows[0]; f.R != 1 {
		t.Errorf("loaded ref from by-value struct = %+v, want R on bit 0", f)
	}
}

// TestRangeBindingsCarryTaint pins range-variable seeding: a reference
// element ranged out of parameter memory is deep-tainted.
func TestRangeBindingsCarryTaint(t *testing.T) {
	a := loadPkg(t, header+`
func First(p *T) *T {
	for i, q := range p.Ps {
		_ = i
		return q
	}
	return nil
}
`)
	if f := summary(t, a, "p.First").Flows[0]; f.R != 1 {
		t.Errorf("ranged element = %+v, want R on param bit 0", f)
	}
}

// TestTypeSwitchBindsSubject pins the implicit per-clause object: the
// switch subject's taint reaches the clause variable.
func TestTypeSwitchBindsSubject(t *testing.T) {
	a := loadPkg(t, header+`
func Pick(v interface{}) *T {
	switch q := v.(type) {
	case *T:
		return q
	}
	return nil
}
`)
	if f := summary(t, a, "p.Pick").Flows[0]; f.D|f.R == 0 {
		t.Errorf("type-switch binding lost the subject taint: %+v", f)
	}
}

// TestVarDeclAndTupleForward pins var-spec seeding and `return f()`
// forwarding of a multi-result call.
func TestVarDeclAndTupleForward(t *testing.T) {
	a := loadPkg(t, header+`
func Pair(p *T) (*T, error) {
	return p, nil
}

func Forward(p *T) (*T, error) {
	return Pair(p)
}

func Decl(p *T) *T {
	var a, b = p, p.N
	_ = b
	return a
}
`)
	sf := summary(t, a, "p.Forward")
	if sf.Flows[0].D != 1 {
		t.Errorf("forwarded value result = %+v, want D on bit 0", sf.Flows[0])
	}
	if f := sf.Flows[1]; f.D|f.R|f.V != 0 {
		t.Errorf("forwarded error result tainted: %+v", f)
	}
	if f := summary(t, a, "p.Decl").Flows[0]; f.D != 1 {
		t.Errorf("var-spec binding = %+v, want D on bit 0", f)
	}
}

// TestNamedResultNakedReturn pins the naked-return path: named results
// publish their environment taint.
func TestNamedResultNakedReturn(t *testing.T) {
	a := loadPkg(t, header+`
func Named(p *T) (out *T) {
	out = p
	return
}
`)
	if f := summary(t, a, "p.Named").Flows[0]; f.D != 1 {
		t.Errorf("naked return of named result = %+v, want D on bit 0", f)
	}
}

// TestSortWritesAllowlisted pins the one external-writer family: the
// sort package mutates its argument in place.
func TestSortWritesAllowlisted(t *testing.T) {
	a := loadPkg(t, `package p

import "sort"

type T struct{ Xs []int }

func Order(p *T) {
	sort.Ints(p.Xs)
}
`)
	s := summary(t, a, "p.Order")
	if len(s.Writes) != 1 || s.Writes[0].R != 1 {
		t.Errorf("sort.Ints writes = %+v, want one R-write on bit 0", s.Writes)
	}
}

// TestControlFlowStatementsWalked sweeps the statement walker: defer/go
// closures, branches, sends, selects, and labeled loops all fold their
// effects into the summary.
func TestControlFlowStatementsWalked(t *testing.T) {
	a := loadPkg(t, header+`
func Busy(p *T, ch chan *T) *T {
	defer func() { p.N = 1 }()
	go func() { p.N = 2 }()
	if p.N > 0 {
		for i := 0; i < 3 && i < len(p.Xs); i++ {
			p.Xs[i] = i
		}
	}
	switch p.N {
	case 1:
		ch <- p
	}
	select {
	case q := <-ch:
		return q
	default:
	}
L:
	for {
		break L
	}
	return nil
}
`)
	s := summary(t, a, "p.Busy")
	var direct, deep bool
	for _, w := range s.Writes {
		if w.D&1 != 0 {
			direct = true
		}
		if w.R&1 != 0 {
			deep = true
		}
	}
	if !direct || !deep {
		t.Errorf("want both field (D) and element (R) writes recorded: %+v", s.Writes)
	}
}

// TestMapStoreThroughParam pins map-element stores: writing a shared
// reference into a parameter map is a write through param memory.
func TestMapStoreThroughParam(t *testing.T) {
	a := loadPkg(t, header+`
func Put(m map[int]*T, p *T) {
	m[0] = p
}
`)
	s := summary(t, a, "p.Put")
	if len(s.Writes) == 0 || s.Writes[0].D&1 == 0 {
		t.Errorf("map store not recorded as a write through param 0: %+v", s.Writes)
	}
}
