package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocCheckAnalyzer builds the hot-path allocation checker.
//
// Functions annotated //mdglint:hotpath — the planners' steady-state
// inner loops — and everything reachable from them through the module
// call graph must not allocate: ROADMAP item 2's "allocation-free at
// steady state" as a static gate instead of a benchmark regression.
// Inside a hot function, every heap-allocation site is a finding:
//
//   - make and new;
//   - append (growth beyond capacity reallocates; amortized-safe
//     appends into reused scratch carry an audited allow);
//   - composite literals that allocate: &T{...}, slice literals, and
//     map literals (plain value-context struct/array literals live on
//     the stack and pass);
//   - closure creation: a func literal that captures outer variables
//     and escapes the statement creating it (passed as an argument,
//     returned, or stored). Literals bound to locals and only invoked
//     directly are assumed non-escaping and pass;
//   - interface boxing: a concrete value passed where an interface
//     parameter is expected;
//   - string <-> []byte conversions, which copy.
//
// Escapes are approximated syntactically — what a plan actually
// allocates is counted at run time by TestPlanAllocsCeiling — so the
// audited suppression carries the judgement call: //mdglint:allow-alloc(reason) on the line (or the
// line above) excuses a site, and on a function declaration it marks an
// allocation boundary hotness does not propagate through. Test files
// are exempt.
func AllocCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "alloccheck",
		Doc:  "flag heap-allocation sites in functions reachable from //mdglint:hotpath roots",
		Run:  runAllocCheck,
	}
}

func runAllocCheck(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	for _, file := range pass.Pkg.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		// Visit every function body in the file — declarations and
		// literals — and scan the hot ones. Literal bodies are scanned
		// under their own node, never as part of the enclosing function,
		// so a cold closure inside a hot function stays silent and vice
		// versa.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && pass.Mod.HotFunc(pass.Pkg, fn) {
					scanAllocs(pass, fn.Body)
				}
			case *ast.FuncLit:
				if pass.Mod.HotFunc(pass.Pkg, fn) {
					scanAllocs(pass, fn.Body)
				}
			}
			return true
		})
	}
}

// scanAllocs reports the allocation sites in one function body,
// skipping nested literals (they are their own graph nodes).
func scanAllocs(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch expr := n.(type) {
		case *ast.FuncLit:
			reportClosure(pass, expr)
			return false
		case *ast.CallExpr:
			checkCallAlloc(pass, expr)
			return true
		case *ast.UnaryExpr:
			if expr.Op == token.AND {
				if _, ok := ast.Unparen(expr.X).(*ast.CompositeLit); ok {
					reportAlloc(pass, expr.Pos(), "&composite literal allocates; hoist it into reused scratch state")
				}
			}
			return true
		case *ast.CompositeLit:
			switch info.TypeOf(expr).Underlying().(type) {
			case *types.Slice:
				reportAlloc(pass, expr.Pos(), "slice literal allocates its backing array; reuse a scratch slice")
			case *types.Map:
				reportAlloc(pass, expr.Pos(), "map literal allocates; hoist the map into reused state")
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkCallAlloc classifies one call expression: allocating builtins,
// copying string conversions, and interface boxing of arguments.
func checkCallAlloc(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion: string <-> []byte (and string <-> []rune) copy.
		if len(call.Args) == 1 {
			dst, src := tv.Type, info.TypeOf(call.Args[0])
			if src != nil && stringBytesConversion(dst, src) {
				reportAlloc(pass, call.Pos(),
					"%s(%s) conversion copies; keep one representation on the hot path",
					types.TypeString(dst, nil), types.TypeString(src, nil))
			}
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				reportAlloc(pass, call.Pos(), "make allocates; hoist the buffer into reused scratch state")
			case "new":
				reportAlloc(pass, call.Pos(), "new allocates; hoist the value into reused scratch state")
			case "append":
				reportAlloc(pass, call.Pos(), "append may grow and reallocate; pre-size or reuse the backing array")
			}
			return
		}
	}

	// Interface boxing: concrete arguments bound to interface params.
	sigTV, ok := info.Types[fun]
	if !ok || sigTV.Type == nil {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		param := paramTypeAt(sig, i, call)
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isNilOrInterface(info, arg, at) {
			continue
		}
		reportAlloc(pass, arg.Pos(),
			"argument boxes a %s into an interface parameter; avoid interface crossings on the hot path",
			types.TypeString(at, nil))
	}
}

// paramTypeAt returns the declared parameter type bound to argument i,
// unwrapping the variadic element type. Calls spread with f(xs...) pass
// the slice itself, so the variadic slice type applies unchanged.
func paramTypeAt(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if i < n-1 || !sig.Variadic() {
		if i >= n {
			return nil
		}
		return sig.Params().At(i).Type()
	}
	last := sig.Params().At(n - 1).Type()
	if call.Ellipsis.IsValid() {
		return last
	}
	if sl, ok := last.Underlying().(*types.Slice); ok {
		return sl.Elem()
	}
	return last
}

// isNilOrInterface reports whether arg needs no boxing: already an
// interface value, the untyped nil, or a compile-time constant (which
// the compiler can box into static data).
func isNilOrInterface(info *types.Info, arg ast.Expr, at types.Type) bool {
	if tv, ok := info.Types[arg]; ok {
		if tv.IsNil() || tv.Value != nil {
			return true
		}
	}
	_, isIface := at.Underlying().(*types.Interface)
	return isIface
}

// stringBytesConversion reports whether dst(src) is one of the copying
// string representation changes.
func stringBytesConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// reportClosure flags a nested func literal when it captures outer
// variables and escapes its creating statement.
func reportClosure(pass *Pass, lit *ast.FuncLit) {
	if !capturesOuter(pass.Pkg.Info, lit) {
		return
	}
	if !litEscapes(pass, lit) {
		return
	}
	reportAlloc(pass, lit.Pos(),
		"capturing closure escapes its creating function and allocates; pass state explicitly or hoist the closure")
}

// capturesOuter reports whether the literal reads or writes any
// variable declared outside itself.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level: static address, no capture cell
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// litEscapes approximates the compiler's escape verdict for a literal:
// true when the literal is used as a call argument, returned, sent,
// or stored into anything non-local — the shapes that let the closure
// outlive (or leave) the frame that created it. The approximation is
// syntactic (one level of parent context, tracked by a second walk), so
// the audited allow directive settles the borderline cases.
func litEscapes(pass *Pass, lit *ast.FuncLit) bool {
	escapes := false
	for _, file := range pass.Pkg.Files {
		if !(file.Pos() <= lit.Pos() && lit.Pos() < file.End()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if escapes {
				return false
			}
			switch parent := n.(type) {
			case *ast.CallExpr:
				for _, arg := range parent.Args {
					if ast.Unparen(arg) == lit {
						escapes = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range parent.Results {
					if ast.Unparen(r) == lit {
						escapes = true
					}
				}
			case *ast.SendStmt:
				if ast.Unparen(parent.Value) == lit {
					escapes = true
				}
			case *ast.CompositeLit:
				for _, el := range parent.Elts {
					if ast.Unparen(el) == lit {
						escapes = true
					}
					if kv, ok := el.(*ast.KeyValueExpr); ok && ast.Unparen(kv.Value) == lit {
						escapes = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range parent.Rhs {
					if ast.Unparen(rhs) != lit {
						continue
					}
					// Storing into an indexed/deref/field target escapes;
					// a plain := or = to a simple local stays stack-bound.
					if i < len(parent.Lhs) {
						if _, isIdent := ast.Unparen(parent.Lhs[i]).(*ast.Ident); !isIdent {
							escapes = true
						}
					}
				}
			}
			return true
		})
		break
	}
	return escapes
}

// reportAlloc reports one allocation site unless an allow-alloc
// directive covers the line.
func reportAlloc(pass *Pass, pos token.Pos, format string, args ...any) {
	if pass.Mod != nil && pass.Mod.AllowedAt(pass.Pkg, pos) != "" {
		return
	}
	pass.Reportf(pos, format, args...)
}
