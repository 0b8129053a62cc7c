package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckAnalyzer flags error results discarded in non-test code: a
// call used as a bare statement (including defer and go) whose results
// include an error. Assigning the error to the blank identifier
// (`_ = f()`) is treated as an explicit, visible decision and is not
// flagged. The fmt print family and the never-failing writers
// (strings.Builder, bytes.Buffer) are exempt.
func ErrCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errcheck",
		Doc:  "flag error returns discarded by a bare call statement",
		Run:  runErrCheck,
	}
}

func runErrCheck(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil || !returnsError(pass.Pkg, call) || exemptCallee(pass.Pkg, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error returned by %s is silently discarded; handle it or assign it to _ with a comment",
				calleeLabel(pass.Pkg, call))
			return true
		})
	}
}

// returnsError reports whether the call's result type is or includes error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errType)
	}
}

// exemptCallee reports whether the callee is on the allow list: fmt's
// print family (failure means stdout is gone) and the in-memory writers
// whose Write methods are documented never to fail.
func exemptCallee(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	switch recv.String() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// calleeObject resolves the called function or method, if statically known.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// calleeLabel names the callee for the finding message.
func calleeLabel(pkg *Package, call *ast.CallExpr) string {
	if obj := calleeObject(pkg, call); obj != nil {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != pkg.Types {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return obj.Name()
	}
	return exprString(pkg, call.Fun)
}
