// Package dataflow computes per-function write-effect and escape
// summaries over the lint call graph, for the purity analyzers
// (purecheck, ctxflow). Stdlib only, like the rest of the lint engine.
//
// # Taint model
//
// Each value carries three bit masks over the enclosing function's
// parameters (receiver at index 0 when present):
//
//   - D (direct): the value is a reference into the parameter's own
//     memory — the pointee of a pointer parameter, the backing array of
//     a slice parameter, the buckets of a map parameter.
//   - R (deep): the value references memory at least one reference-field
//     or element load deeper than the parameter — e.g. sc.Net where sc
//     is a by-value struct, or p.buf where p is a pointer parameter.
//   - V (contents): the value is a *fresh* container (allocated inside
//     the function) whose reference contents alias parameter memory —
//     e.g. the result of NewProblem(sc.Net), or a closure capturing a
//     tainted variable.
//
// The distinction is what keeps the analysis precise enough to be
// adoptable: writing through a D or R reference mutates memory the
// caller shares, writing through a V container only initializes fresh
// memory and is not an effect. Storing any of the three into memory
// that outlives the call (a global, parameter-reachable memory, a
// channel) escapes the references it carries, so retention records fire
// on all masks.
//
// Taint propagates only through reference-carrying types: loading a
// struct of scalars (geom.Point) drops it, which is the precision
// barrier that lets planners return fresh tours built from a protected
// network without tripping the escape analysis.
//
// # Summary computation
//
// Summaries are computed bottom-up over the Tarjan strongly-connected
// components of the call graph (callee before caller; mutually
// recursive functions iterate to a joint fixpoint). Each function body
// is interpreted abstractly to a local fixpoint (assignments join, so
// the result is order-independent), then one collection pass records
// write, retention, return, and call-argument sites. Functions outside
// the module have no summary and are assumed effect- and flow-free,
// except for the append/copy builtins and the sort.* sorters, which
// write through their first argument.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"mobicol/internal/lint/callgraph"
)

// Pkg is one type-checked package presented to New. It mirrors the
// call-graph package shape (the lint package converts once and shares).
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// taint is one value's three-mask state.
type taint struct {
	d, r, v uint64
}

func (t taint) any() uint64      { return t.d | t.r | t.v }
func (t taint) empty() bool      { return t.d|t.r|t.v == 0 }
func (t taint) or(u taint) taint { return taint{t.d | u.d, t.r | u.r, t.v | u.v} }
func (t taint) eq(u taint) bool  { return t == u }

// FlowMask describes how parameters flow into one result position.
type FlowMask struct {
	// D: the result is the parameter itself (or a same-level alias).
	// R: the result references memory loaded deeper through the parameter.
	// V: the result is a fresh container holding references derived from
	// the parameter.
	D, R, V uint64
}

// WriteSite is one store through shared memory: D masks parameters
// whose direct memory is written, R parameters whose deeper memory is.
type WriteSite struct {
	Pos  token.Pos
	D, R uint64
	Desc string
}

// RetainSite is one store of parameter-derived references into memory
// that outlives the call (a global, parameter-reachable memory, a
// channel send), or — for Returns consumers — a return statement.
type RetainSite struct {
	Pos     token.Pos
	D, R, V uint64
	Desc    string
}

// CallFlow records parameter-derived taint passed to a module-internal
// callee: the argument bound to callee parameter Param carried the
// given masks over the *caller's* parameters.
type CallFlow struct {
	Callee  *callgraph.Node
	Param   int
	D, R, V uint64
	Pos     token.Pos
}

// Summary is one function's computed effects.
type Summary struct {
	Node *callgraph.Node
	// Params holds the parameter objects in taint-index order (receiver
	// first when present). Unnamed parameters are nil placeholders.
	Params []types.Object
	// HasRecv reports whether index 0 is a method receiver.
	HasRecv bool
	// Flows has one mask per result position.
	Flows []FlowMask
	// Writes, Retains, Returns, Calls are the collected sites in source
	// order. Returns unions all result positions of one return statement
	// (per-position flow lives in Flows).
	Writes  []WriteSite
	Retains []RetainSite
	Returns []RetainSite
	Calls   []CallFlow
}

// flowsEq reports whether two flow slices are identical.
func flowsEq(a, b []FlowMask) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Analysis holds the summaries for a module.
type Analysis struct {
	graph *callgraph.Graph
	pkgs  map[string]*Pkg // by import path
	sums  map[*callgraph.Node]*Summary
}

// Summary returns the node's summary, or nil for nodes with no body in
// the analyzed packages.
func (a *Analysis) Summary(n *callgraph.Node) *Summary { return a.sums[n] }

// New computes summaries for every node of g, bottom-up over SCCs.
func New(pkgs []Pkg, g *callgraph.Graph) *Analysis {
	a := &Analysis{
		graph: g,
		pkgs:  make(map[string]*Pkg, len(pkgs)),
		sums:  make(map[*callgraph.Node]*Summary),
	}
	for i := range pkgs {
		a.pkgs[pkgs[i].Path] = &pkgs[i]
	}
	nodes := g.Nodes()
	for _, n := range nodes {
		if s := a.newSummary(n); s != nil {
			a.sums[n] = s
		}
	}
	for _, scc := range sccs(nodes) {
		// Iterate the component until a full round leaves every member's
		// flow masks unchanged; the final round's collection pass then
		// reflects the joint fixpoint.
		for round := 0; round < 64; round++ {
			changed := false
			for _, n := range scc {
				if a.sums[n] == nil {
					continue
				}
				if a.analyze(n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return a
}

// newSummary builds the parameter skeleton for a node, or nil when the
// node's package or body is unavailable.
func (a *Analysis) newSummary(n *callgraph.Node) *Summary {
	pkg := a.pkgs[n.PkgPath]
	if pkg == nil {
		return nil
	}
	s := &Summary{Node: n}
	var ftype *ast.FuncType
	switch {
	case n.Decl != nil:
		ftype = n.Decl.Type
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
			s.HasRecv = true
			names := n.Decl.Recv.List[0].Names
			if len(names) == 1 && names[0].Name != "_" {
				s.Params = append(s.Params, pkg.Info.Defs[names[0]])
			} else {
				s.Params = append(s.Params, nil)
			}
		}
	case n.Lit != nil:
		ftype = n.Lit.Type
	default:
		return nil
	}
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			if len(field.Names) == 0 {
				s.Params = append(s.Params, nil)
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					s.Params = append(s.Params, nil)
					continue
				}
				s.Params = append(s.Params, pkg.Info.Defs[name])
			}
		}
	}
	nres := 0
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			if len(field.Names) == 0 {
				nres++
			} else {
				nres += len(field.Names)
			}
		}
	}
	s.Flows = make([]FlowMask, nres)
	return s
}

// sccs returns the strongly-connected components of the call graph in
// reverse topological order (every callee SCC before its callers) —
// Tarjan's emission order.
func sccs(nodes []*callgraph.Node) [][]*callgraph.Node {
	index := make(map[*callgraph.Node]int, len(nodes))
	low := make(map[*callgraph.Node]int, len(nodes))
	onStack := make(map[*callgraph.Node]bool, len(nodes))
	var stack []*callgraph.Node
	var out [][]*callgraph.Node
	next := 0

	// Iterative Tarjan: frame.i is the next edge to visit.
	type frame struct {
		n *callgraph.Node
		i int
	}
	var visit func(root *callgraph.Node)
	visit = func(root *callgraph.Node) {
		frames := []frame{{n: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.n.Calls()) {
				c := f.n.Calls()[f.i]
				f.i++
				if _, seen := index[c]; !seen {
					index[c] = next
					low[c] = next
					next++
					stack = append(stack, c)
					onStack[c] = true
					frames = append(frames, frame{n: c})
				} else if onStack[c] {
					if index[c] < low[f.n] {
						low[f.n] = index[c]
					}
				}
				continue
			}
			n := f.n
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].n
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []*callgraph.Node
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				out = append(out, comp)
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return out
}
