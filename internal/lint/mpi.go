package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The mpi pass enforces five pieces of request discipline:
//
//  1. lifecycle — every non-blocking call (Isend, Irecv, Ibcast,
//     Ireduce, NewDeferredRequest) returns a *Request that must reach a
//     Wait/Test (any later use counts) on every path; discarding the
//     result or letting the variable die unexamined leaks the request
//     and, under ULFM-style revocation, strands the completion;
//  2. integrity — a checksummed receive (RecvSummed) must reach its
//     Verify on every path; a path that skips Verify silently accepts
//     corrupted payloads, defeating the whole integrity plane;
//  3. tags — message tags must be named constants (or expressions over
//     them), never bare integer literals: two call sites inventing the
//     same literal tag cross their matches silently;
//  4. helper threads — closures handed to SpawnThread model the
//     communication helper thread; issuing a blocking collective from
//     one deadlocks the rank the moment the main thread enters the
//     same collective.
//  5. kernel context — RunEvent bodies (sim.Runnable hooks, where the
//     delivery-perturbation plane runs) and closures handed to
//     Kernel.At execute inside the event kernel, where no rank loop
//     exists to Wait a request; constructing one there is structurally
//     a leak, even if the result is stored. A wire-fault hook must
//     reschedule or re-land traffic, never post new requests.

func runMPI(pkg *Pkg, report func(pos token.Pos, msg string)) {
	runFlow(pkg, flowSpec{
		creator: requestCreator,
		discardMsg: func(c string) string {
			return fmt.Sprintf("%s result discarded: the request never reaches Wait/Test and leaks", c)
		},
		leakMsg: func(c string) string {
			return fmt.Sprintf("request from %s does not reach Wait/Test on every path", c)
		},
	}, report)

	runFlow(pkg, flowSpec{
		creator: summedCreator,
		discardMsg: func(c string) string {
			return fmt.Sprintf("%s result discarded: the checksummed payload never reaches Verify and corruption passes silently", c)
		},
		leakMsg: func(c string) string {
			return fmt.Sprintf("checksummed receive from %s does not reach Verify on every path", c)
		},
	}, report)

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTagArgs(pkg, n, report)
				checkHelperThread(pkg, n, report)
				checkKernelCallback(pkg, n, report)
			case *ast.FuncDecl:
				checkRunEvent(pkg, n, report)
			}
			return true
		})
	}
}

// requestCreator names non-blocking request constructors.
func requestCreator(pkg *Pkg, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	switch {
	case funcFrom(fn, "scaffe/internal/mpi", "Isend", "Irecv", "Ibcast", "NewDeferredRequest", "IjoinAck", "IjoinAckRecv"):
		return "mpi." + fn.Name()
	case funcFrom(fn, "scaffe/internal/coll", "Ireduce"):
		return "coll.Ireduce"
	}
	return ""
}

// summedCreator names the checksummed-receive constructor.
func summedCreator(pkg *Pkg, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if funcFrom(fn, "scaffe/internal/mpi", "RecvSummed") {
		return "mpi." + fn.Name()
	}
	return ""
}

// checkTagArgs flags bare integer literals passed to a parameter named
// "tag" of an mpi or coll function.
func checkTagArgs(pkg *Pkg, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "scaffe/internal/mpi" && p != "scaffe/internal/coll" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		if params.At(i).Name() != "tag" {
			continue
		}
		if isIntLiteral(arg) {
			report(arg.Pos(), fmt.Sprintf(
				"literal tag passed to %s.%s; use a named constant so call sites cannot collide", fn.Pkg().Name(), fn.Name()))
		}
	}
}

// isIntLiteral reports whether expr is a bare integer literal,
// possibly parenthesized or signed.
func isIntLiteral(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return isIntLiteral(e.X)
		}
	}
	return false
}

// checkRunEvent flags request construction inside a RunEvent method —
// the sim.Runnable hook that executes in kernel context, where the
// delivery-perturbation plane (mpi/wire.go) lives. There is no rank
// loop in kernel context to Wait the request, so anything posted there
// is unwaited no matter where the result lands; the hook must confine
// itself to rescheduling and re-landing the traffic it intercepts.
// Nested function literals are skipped: a closure built here runs in
// whatever context it is later invoked from, and the ones handed back
// to the kernel are covered by checkKernelCallback.
func checkRunEvent(pkg *Pkg, fn *ast.FuncDecl, report func(pos token.Pos, msg string)) {
	if fn.Recv == nil || fn.Name.Name != "RunEvent" || fn.Body == nil {
		return
	}
	reportCreators(pkg, fn.Body, report, func(c string) string {
		return fmt.Sprintf("%s inside a RunEvent kernel hook: kernel context has no rank to Wait the request — a delivery-perturbation hook must reschedule or re-land traffic, never post new requests", c)
	})
}

// checkKernelCallback flags request construction inside a function
// literal handed to sim Kernel.At. The literal fires in kernel context
// at its scheduled instant (the reorder-stash failsafe in mpi/wire.go
// is the canonical user), with the same no-one-can-Wait problem as a
// RunEvent body.
func checkKernelCallback(pkg *Pkg, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	if !funcFrom(calleeFunc(pkg, call), "scaffe/internal/sim", "At") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		reportCreators(pkg, lit.Body, report, func(c string) string {
			return fmt.Sprintf("%s inside a Kernel.At callback: kernel context has no rank to Wait the request — reschedule the delivery instead of posting new requests", c)
		})
	}
}

// reportCreators reports every request-constructor call lexically
// inside body, without descending into nested function literals.
func reportCreators(pkg *Pkg, body *ast.BlockStmt, report func(pos token.Pos, msg string), msg func(creator string) string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := requestCreator(pkg, call); c != "" {
			report(call.Pos(), msg(c))
		}
		return true
	})
}

// checkHelperThread flags blocking collectives inside a closure passed
// to mpi SpawnThread.
func checkHelperThread(pkg *Pkg, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	fn := calleeFunc(pkg, call)
	if !funcFrom(fn, "scaffe/internal/mpi", "SpawnThread") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ifn := calleeFunc(pkg, inner)
			switch {
			case funcFrom(ifn, "scaffe/internal/mpi", "Bcast"):
				report(inner.Pos(), "blocking mpi.Bcast inside a SpawnThread helper; it deadlocks against the main thread's collectives — use Ibcast")
			case funcFrom(ifn, "scaffe/internal/coll", "Reduce", "Allreduce"):
				report(inner.Pos(), fmt.Sprintf(
					"blocking collective coll.%s inside a SpawnThread helper; it deadlocks against the main thread's collectives — use coll.Ireduce", ifn.Name()))
			}
			return true
		})
	}
}
