package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"mobicol/internal/lint/callgraph"
	"mobicol/internal/lint/dataflow"
)

// Interprocedural module context. The per-package analyzers see one
// package at a time; alloccheck and parpure reason about what is
// *reachable* across packages, so Run builds one Module per lint run —
// the CHA call graph plus the hot-path annotation state — and hands it
// to every Pass.
//
// Two directives drive the hot-path analysis:
//
//	//mdglint:hotpath
//	    on (or in the doc comment of) a function declaration marks it
//	    as a hot-path root: the function and everything reachable from
//	    it must not allocate.
//
//	//mdglint:allow-alloc(reason)
//	    on a declaration marks an audited allocation boundary: the
//	    function may allocate, and hotness does not propagate through
//	    it (its callees are cold unless reached another way). On a
//	    statement line (or the line above it), it excuses the
//	    allocation sites on that line only. The reason is mandatory.
//
// A third directive drives the purity analysis:
//
//	//mdglint:allow-mut(reason)
//	    on a declaration marks an audited mutation boundary for
//	    purecheck: the function may mutate or retain Scenario-derived
//	    state, and the protection worklist does not descend through it.
//	    On a statement line (or the line above), it excuses the purity
//	    findings on that line only. The reason is mandatory.
const (
	hotpathDirective = "//mdglint:hotpath"
	allowAllocPrefix = "//mdglint:allow-alloc"
	allowMutPrefix   = "//mdglint:allow-mut"
)

// Module is the whole-module context shared by the interprocedural
// analyzers.
type Module struct {
	Pkgs  []*Package
	Graph *callgraph.Graph

	hot        map[*callgraph.Node]bool
	hotRoots   []*callgraph.Node
	allowFuncs map[*callgraph.Node]string // decl-level allow-alloc boundaries
	allowLines map[lineKey]string         // file:line -> reason
	mutFuncs   map[*callgraph.Node]string // decl-level allow-mut boundaries
	mutLines   map[lineKey]string         // file:line -> reason
	malformed  []Finding                  // malformed allow-alloc/allow-mut directives

	dfOnce sync.Once
	df     *dataflow.Analysis

	rootsOnce sync.Once
	planRoots []PlanRoot
}

// lineKey addresses one source line across the module.
type lineKey struct {
	file string
	line int
}

// NewModule builds the interprocedural context for the given packages.
// It tolerates partial type information: unresolvable calls simply get
// no edges and the affected functions fall out of the hot set.
func NewModule(pkgs []*Package) *Module {
	cgPkgs := make([]callgraph.Pkg, len(pkgs))
	for i, p := range pkgs {
		cgPkgs[i] = callgraph.Pkg{Path: p.ImportPath, Fset: p.Fset, Files: p.Files, Info: p.Info}
	}
	m := &Module{
		Pkgs:       pkgs,
		Graph:      callgraph.Build(cgPkgs),
		allowFuncs: map[*callgraph.Node]string{},
		allowLines: map[lineKey]string{},
		mutFuncs:   map[*callgraph.Node]string{},
		mutLines:   map[lineKey]string{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			m.collectDirectives(pkg, file)
		}
	}
	m.hot = m.Graph.Reachable(m.hotRoots, func(n *callgraph.Node) bool {
		_, allowed := m.allowFuncs[n]
		return allowed
	})
	return m
}

// HotFunc reports whether the body of fn (a *ast.FuncDecl or
// *ast.FuncLit from one of the module's packages) is on the hot path.
func (m *Module) HotFunc(pkg *Package, fn ast.Node) bool {
	return m.hot[m.nodeFor(pkg, fn)]
}

// AllowedAt returns the allow-alloc reason covering a finding at pos —
// a directive on the same line or the line above — or "" when none.
func (m *Module) AllowedAt(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	if r, ok := m.allowLines[lineKey{p.Filename, p.Line}]; ok {
		return r
	}
	return m.allowLines[lineKey{p.Filename, p.Line - 1}]
}

// pkgByPath returns the module package with the given import path, or
// nil (fixture modules may reference paths outside the loaded set).
func (m *Module) pkgByPath(path string) *Package {
	for _, p := range m.Pkgs {
		if p.ImportPath == path {
			return p
		}
	}
	return nil
}

// nodeFor resolves an AST function to its graph node.
func (m *Module) nodeFor(pkg *Package, fn ast.Node) *callgraph.Node {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		if obj, ok := pkg.Info.Defs[f.Name].(*types.Func); ok {
			return m.Graph.NodeOf(obj)
		}
	case *ast.FuncLit:
		return m.Graph.NodeOfLit(f)
	}
	return nil
}

// collectDirectives parses the hot-path directives of one file and
// attaches declaration-level ones to their functions.
func (m *Module) collectDirectives(pkg *Package, file *ast.File) {
	fset := pkg.Fset
	type rawDirective struct {
		line   int
		pos    token.Position
		hot    bool
		mut    bool
		reason string
	}
	var raws []rawDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			pos := fset.Position(c.Pos())
			switch {
			case text == hotpathDirective:
				raws = append(raws, rawDirective{line: pos.Line, pos: pos, hot: true})
			case strings.HasPrefix(text, allowMutPrefix):
				rest := strings.TrimPrefix(text, allowMutPrefix)
				reason, ok := parseAllowReason(rest)
				if !ok {
					m.malformed = append(m.malformed, Finding{Pos: pos, Analyzer: "mdglint",
						Message: "malformed directive: want //mdglint:allow-mut(reason)"})
					continue
				}
				raws = append(raws, rawDirective{line: pos.Line, pos: pos, mut: true, reason: reason})
			case strings.HasPrefix(text, allowAllocPrefix):
				rest := strings.TrimPrefix(text, allowAllocPrefix)
				reason, ok := parseAllowReason(rest)
				if !ok {
					m.malformed = append(m.malformed, Finding{Pos: pos, Analyzer: "mdglint",
						Message: "malformed directive: want //mdglint:allow-alloc(reason)"})
					continue
				}
				raws = append(raws, rawDirective{line: pos.Line, pos: pos, reason: reason})
			}
		}
	}
	if len(raws) == 0 {
		return
	}

	// declAt maps every line of a function declaration's header — doc
	// comment, the line above the func keyword, and the func line — to
	// the declaration, so directives there bind to the whole function.
	declAt := map[int]*ast.FuncDecl{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		funcLine := fset.Position(fd.Pos()).Line
		start := funcLine - 1
		if fd.Doc != nil {
			start = fset.Position(fd.Doc.Pos()).Line
		}
		for line := start; line <= funcLine; line++ {
			declAt[line] = fd
		}
	}

	for _, d := range raws {
		fd := declAt[d.line]
		switch {
		case d.hot && fd != nil:
			if n := m.nodeFor(pkg, fd); n != nil {
				m.hotRoots = append(m.hotRoots, n)
			}
		case d.hot:
			m.malformed = append(m.malformed, Finding{Pos: d.pos, Analyzer: "mdglint",
				Message: "misplaced directive: //mdglint:hotpath must sit on a function declaration"})
		case d.mut && fd != nil:
			if n := m.nodeFor(pkg, fd); n != nil {
				m.mutFuncs[n] = d.reason
			}
		case d.mut:
			m.mutLines[lineKey{d.pos.Filename, d.line}] = d.reason
		case fd != nil:
			if n := m.nodeFor(pkg, fd); n != nil {
				m.allowFuncs[n] = d.reason
			}
		default:
			m.allowLines[lineKey{d.pos.Filename, d.line}] = d.reason
		}
	}
}

// MutAllowedAt returns the allow-mut reason covering a finding at pos —
// a directive on the same line or the line above — or "" when none.
func (m *Module) MutAllowedAt(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	if r, ok := m.mutLines[lineKey{p.Filename, p.Line}]; ok {
		return r
	}
	return m.mutLines[lineKey{p.Filename, p.Line - 1}]
}

// MutBoundary returns the decl-level allow-mut reason for a node, if any.
func (m *Module) MutBoundary(n *callgraph.Node) (string, bool) {
	r, ok := m.mutFuncs[n]
	return r, ok
}

// Dataflow returns the module's write-effect/escape summaries, computed
// on first use and shared by the analyzers that need them (purecheck).
func (m *Module) Dataflow() *dataflow.Analysis {
	m.dfOnce.Do(func() {
		dfPkgs := make([]dataflow.Pkg, len(m.Pkgs))
		for i, p := range m.Pkgs {
			dfPkgs[i] = dataflow.Pkg{Path: p.ImportPath, Fset: p.Fset, Files: p.Files, Info: p.Info}
		}
		m.df = dataflow.New(dfPkgs, m.Graph)
	})
	return m.df
}

// PlanRoot is one registered planner entry point: the concrete Plan
// method of a type implementing a Planner interface, plus the taint
// index of its Scenario parameter (-1 when it has none).
type PlanRoot struct {
	Node          *callgraph.Node
	ScenarioParam int
	// ScenarioPtr records whether the parameter is *Scenario — a shared
	// scenario rather than a by-value copy with shared contents.
	ScenarioPtr bool
}

// PlanRoots discovers the module's planner seam: every interface named
// Planner with a Plan method whose first parameter is context.Context
// defines a contract; every module type implementing one (CHA, so
// registration sites need not be visible) contributes its concrete Plan
// method as a root. The engine's registry only accepts Planner values,
// so "implements Planner" over-approximates "registered" exactly the
// way the rest of the lint graph over-approximates calls.
func (m *Module) PlanRoots() []PlanRoot {
	m.rootsOnce.Do(func() { m.planRoots = m.findPlanRoots() })
	return m.planRoots
}

func (m *Module) findPlanRoots() []PlanRoot {
	var ifaces []*types.Interface
	var concrete []*types.Named
	for _, pkg := range m.Pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if tn.Name() == "Planner" && plannerContract(iface) {
					ifaces = append(ifaces, iface)
				}
				continue
			}
			concrete = append(concrete, named)
		}
	}
	if len(ifaces) == 0 {
		return nil
	}
	sort.Slice(concrete, func(i, j int) bool { return concrete[i].Obj().Pos() < concrete[j].Obj().Pos() })
	var roots []PlanRoot
	seen := map[*callgraph.Node]bool{}
	for _, named := range concrete {
		impl := false
		for _, iface := range ifaces {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				impl = true
				break
			}
		}
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "Plan")
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		node := m.Graph.NodeOf(fn)
		if node == nil || seen[node] {
			continue
		}
		seen[node] = true
		root := PlanRoot{Node: node, ScenarioParam: -1}
		if sig, ok := fn.Type().(*types.Signature); ok {
			offset := 0
			if sig.Recv() != nil {
				offset = 1
			}
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				ptr := false
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t, ptr = p.Elem(), true
				}
				if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Scenario" {
					root.ScenarioParam = offset + i
					root.ScenarioPtr = ptr
					break
				}
			}
		}
		roots = append(roots, root)
	}
	return roots
}

// plannerContract reports whether the interface has a Plan method whose
// first parameter is context.Context.
func plannerContract(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Plan" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 {
			return false
		}
		named, ok := sig.Params().At(0).Type().(*types.Named)
		return ok && named.Obj().Name() == "Context" &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context"
	}
	return false
}

// parseAllowReason extracts the reason from "(reason)". Empty or
// unclosed reasons are malformed — the audit trail is the point.
func parseAllowReason(rest string) (string, bool) {
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", false
	}
	reason := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(rest, "("), ")"))
	if reason == "" {
		return "", false
	}
	return reason, true
}
