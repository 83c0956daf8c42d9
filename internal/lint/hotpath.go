package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The hotpath pass enforces the PR-2 zero-allocation contract: the
// steady-state training iteration must not allocate. Since PR 9 the
// contract is interprocedural — the pass checks every function holding
// a hotpath obligation, whether annotated //scaffe:hotpath directly or
// reached from an annotated root through the call graph (the
// diagnostic then names the chain). Flagged:
//
//   - slice/map composite literals and &T{} pointer literals,
//   - make/new/append (append may grow; pre-size in setup code),
//   - fmt.* calls (format machinery allocates),
//   - function literals (closure environments allocate when captured),
//   - go statements (new goroutine stacks),
//   - string concatenation with +,
//   - implicit interface boxing of non-pointer arguments.
//
// Code inside panic(...) arguments is exempt: a panicking path has
// already left the steady state. Lines under a //scaffe:coldpath
// call-site directive are exempt as deliberate slow-path departures.

func runHotpath(prog *Program, pkg *Pkg, report func(pos token.Pos, msg string)) {
	for _, n := range prog.Graph.NodesOf(pkg) {
		chain, ok := prog.Hot[n]
		if !ok {
			continue
		}
		checkHotBody(pkg, n, chainSuffix(chain, n.Hot), coldGuard(pkg, n, report))
	}
}

// coldGuard wraps report to drop diagnostics on lines covered by a
// call-site //scaffe:coldpath directive in n's file.
func coldGuard(pkg *Pkg, n *FuncNode, report func(pos token.Pos, msg string)) func(token.Pos, string) {
	cold := coldCallLines(pkg, n)
	if cold == nil {
		return report
	}
	return func(pos token.Pos, msg string) {
		if cold[pkg.Fset.Position(pos).Line] {
			return
		}
		report(pos, msg)
	}
}

func checkHotBody(pkg *Pkg, n *FuncNode, suffix string, report0 func(pos token.Pos, msg string)) {
	report := func(pos token.Pos, msg string) { report0(pos, msg+suffix) }
	inspectBody(n, func(x ast.Node) {
		switch node := x.(type) {
		case *ast.CompositeLit:
			switch t := pkg.Info.TypeOf(node); t.Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), "slice literal allocates in a //scaffe:hotpath function; hoist to setup")
			case *types.Map:
				report(node.Pos(), "map literal allocates in a //scaffe:hotpath function; hoist to setup")
			}

		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "&T{} escapes to the heap in a //scaffe:hotpath function; reuse a preallocated value")
				}
			}

		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(pkg.Info.TypeOf(node)) {
				report(node.Pos(), "string concatenation allocates in a //scaffe:hotpath function")
			}

		case *ast.FuncLit:
			// The literal's own body is its own graph node, checked
			// with the propagated chain; here only the closure value
			// itself is the allocation.
			report(node.Pos(), "function literal in a //scaffe:hotpath function; captured variables allocate a closure")

		case *ast.GoStmt:
			report(node.Pos(), "go statement in a //scaffe:hotpath function; spawn workers during setup, not per iteration")

		case *ast.CallExpr:
			checkHotCall(pkg, node, report)
		}
	})
}

// checkHotCall flags allocating calls. Panic arguments never reach
// here: inspectBody skips them.
func checkHotCall(pkg *Pkg, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "append":
				report(call.Pos(), "append may grow its backing array in a //scaffe:hotpath function; pre-size in setup")
			case "make", "new":
				report(call.Pos(), obj.Name()+" allocates in a //scaffe:hotpath function; hoist to setup")
			}
			return
		}
	}
	fn := calleeFunc(pkg, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), fmt.Sprintf("fmt.%s allocates in a //scaffe:hotpath function; format outside the iteration", fn.Name()))
		return
	}
	checkBoxing(pkg, call, fn, report)
}

// checkBoxing flags arguments whose concrete non-pointer value is
// passed where the callee expects an interface: the conversion boxes
// the value on the heap.
func checkBoxing(pkg *Pkg, call *ast.CallExpr, fn *types.Func, report func(pos token.Pos, msg string)) {
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue // interface-to-interface: no new box
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: boxing is allocation-free
		case *types.Basic:
			if at.Underlying().(*types.Basic).Kind() == types.UntypedNil {
				continue
			}
		}
		report(arg.Pos(), fmt.Sprintf("passing %s as interface %s boxes it on the heap in a //scaffe:hotpath function", at, pt))
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
