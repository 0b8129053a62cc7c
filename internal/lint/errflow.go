package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is errcheck's dead rule, the dataflow half of the analyzer:
// errcheck's discarded rule catches a call whose error result is never
// bound; checkErrFlow catches the bound-but-dead cases: an error variable
// overwritten by a later assignment in the same block before anything
// reads it, and an error assignment no statement ever consults — through
// multi-assignment (`v, err = f()`) and named-return paths (a naked
// return publishes the named error; `return nil` discards it).
//
// The analysis is deliberately branch-insensitive in the quiet
// direction: a kill only counts within the same innermost block (so
// `if { err = f() } else { err = g() }; check(err)` stays silent), a use
// anywhere after the assignment — or anywhere inside a loop enclosing
// it — keeps it silent, and variables captured by closures or with
// their address taken are skipped entirely (a deferred handler may read
// them at any time).

// errEvent is one assignment to a tracked error variable.
type errEvent struct {
	pos    token.Pos
	end    token.Pos // end of the assignment statement
	rhsNil bool
}

// errVarState accumulates one variable's events across a body walk.
type errVarState struct {
	assigns []errEvent
	uses    []token.Pos
	skip    bool // captured by a closure, address taken, or range-bound
}

func checkErrFlow(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	errType := types.Universe.Lookup("error").Type()
	isErrVar := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		return ok && !v.IsField() && types.Identical(v.Type(), errType)
	}
	// A variable declared outside this body (or its own signature) is a
	// free variable of the literal being analyzed: a recursive closure
	// may read it on re-entry, so the linear assign/use model does not
	// apply. The enclosing body's walk already handles it — and skips it
	// there as closure-captured.
	local := func(obj types.Object) bool {
		return (obj.Pos() >= body.Pos() && obj.Pos() < body.End()) ||
			(obj.Pos() >= ftype.Pos() && obj.Pos() < ftype.End())
	}

	vars := map[types.Object]*errVarState{}
	state := func(obj types.Object) *errVarState {
		if vars[obj] == nil {
			vars[obj] = &errVarState{}
		}
		return vars[obj]
	}

	// Named error results: naked returns publish them.
	named := map[types.Object]bool{}
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isErrVar(obj) {
					named[obj] = true
				}
			}
		}
	}

	// One walk collecting assignments, uses, disqualifiers, and loop
	// spans. Assignment LHS idents are excluded from uses.
	lhsIdent := map[*ast.Ident]bool{}
	type span struct{ start, end token.Pos }
	var loops []span
	var nakedReturns []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || !isErrVar(obj) || !local(obj) {
					continue
				}
				lhsIdent[id] = true
				rhsNil := false
				if len(x.Rhs) == len(x.Lhs) {
					rhsNil = isNilIdent(x.Rhs[i])
				}
				st := state(obj)
				st.assigns = append(st.assigns, errEvent{
					pos: id.Pos(), end: x.End(), rhsNil: rhsNil,
				})
			}
		case *ast.RangeStmt:
			loops = append(loops, span{x.Pos(), x.End()})
			// Range-bound error vars (range over []error) have loop-carried
			// lifetimes this linear model does not track.
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil && isErrVar(obj) {
						state(obj).skip = true
					}
				}
			}
		case *ast.ForStmt:
			loops = append(loops, span{x.Pos(), x.End()})
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && isErrVar(obj) {
						state(obj).skip = true
					}
				}
			}
		case *ast.FuncLit:
			// Enclosing-scope error vars the literal touches may be read
			// or written at any time relative to this body's statements.
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && isErrVar(obj) && obj.Pos() < x.Pos() {
						state(obj).skip = true
					}
				}
				return true
			})
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				nakedReturns = append(nakedReturns, x.Pos())
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || lhsIdent[id] {
			return true
		}
		if obj := info.Uses[id]; obj != nil && isErrVar(obj) {
			state(obj).uses = append(state(obj).uses, id.Pos())
		}
		return true
	})
	for obj, st := range vars {
		if named[obj] {
			st.uses = append(st.uses, nakedReturns...)
		}
	}

	// Attribute an assignment to its innermost directly-enclosing block
	// (assignments in if-init or for-post position get none, which is
	// what the same-block overwrite rule wants: they cannot pair).
	assignBlock := func(at token.Pos) *ast.BlockStmt {
		var found *ast.BlockStmt
		ast.Inspect(body, func(n ast.Node) bool {
			blk, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for _, stmt := range blk.List {
				if as, ok := stmt.(*ast.AssignStmt); ok {
					if as.Pos() <= at && at < as.End() {
						found = blk
						return false
					}
				}
			}
			return true
		})
		return found
	}

	usedAfter := func(st *errVarState, ev errEvent) bool {
		for _, u := range st.uses {
			if u >= ev.end {
				return true
			}
			// Loop back edge: a use before the assignment but inside a
			// loop that also contains it executes after it on the next
			// iteration.
			for _, l := range loops {
				if l.start <= ev.pos && ev.pos < l.end && l.start <= u && u < l.end {
					return true
				}
			}
		}
		return false
	}
	usedBetween := func(st *errVarState, a, b errEvent) bool {
		for _, u := range st.uses {
			if u >= a.end && u < b.pos {
				return true
			}
		}
		return false
	}

	// Map order is fine here: Run sorts every finding by position.
	for obj, st := range vars {
		if st.skip || len(st.assigns) == 0 {
			continue
		}
		for i, ev := range st.assigns {
			if ev.rhsNil {
				continue
			}
			blk := assignBlock(ev.pos)
			overwritten := false
			if blk != nil {
				for j := i + 1; j < len(st.assigns); j++ {
					next := st.assigns[j]
					if next.pos <= ev.pos || assignBlock(next.pos) != blk {
						continue
					}
					inLoop := false
					for _, l := range loops {
						if l.start <= ev.pos && ev.pos < l.end {
							inLoop = true
							break
						}
					}
					if !usedBetween(st, ev, next) && !inLoop {
						pass.Reportf(ev.pos, "error assigned to %s is overwritten before any check; handle or return the first error",
							obj.Name())
						overwritten = true
					}
					break
				}
			}
			if !overwritten && !usedAfter(st, ev) {
				pass.Reportf(ev.pos, "error assigned to %s is never checked (dead store); handle it or assign to _ with a comment",
					obj.Name())
			}
		}
	}
}
