package lint

import (
	"go/ast"
	"go/token"
)

// The trace pass balances span lifecycles: a span opened with
// trace.Recorder.Begin must reach its End on every return path, or the
// trace stream records an open interval and the golden comparisons
// drift. Same optimistic dataflow as the mpi request check.

func runTrace(pkg *Pkg, report func(pos token.Pos, msg string)) {
	runFlow(pkg, flowSpec{
		creator: spanCreator,
		discardMsg: func(string) string {
			return "span from Recorder.Begin discarded: it can never be ended"
		},
		leakMsg: func(string) string {
			return "span from Recorder.Begin does not reach End on every path"
		},
	}, report)
}

func spanCreator(pkg *Pkg, call *ast.CallExpr) string {
	if funcFrom(calleeFunc(pkg, call), "scaffe/internal/trace", "Begin") {
		return "trace.Recorder.Begin"
	}
	return ""
}
