package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The determinism pass guards the repo's bit-identical-replay
// contract: virtual time and losses must not depend on wall clocks,
// global (unseeded) randomness, or Go's randomized map iteration
// order. It applies to the simulator-facing packages (internal/sim,
// core, sched, coll, mpi) whose outputs the golden tests pin.
//
// Three rules:
//
//  1. no time.Now / time.Since — the simulator's virtual clock is the
//     only time source;
//  2. no global math/rand functions — randomness must flow from a
//     seeded *rand.Rand so runs replay;
//  3. no `range` over a map whose body feeds an ordered output (trace
//     span emission or an MPI send) — map order is randomized per run,
//     so the resulting span/wire order would differ run to run.

// globalRandAllowed lists math/rand package functions that are pure
// constructors and therefore deterministic to call.
var globalRandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pkg *Pkg, report func(pos token.Pos, msg string)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pkg, node)
				if fn == nil {
					return true
				}
				if funcFrom(fn, "time", "Now", "Since") {
					report(node.Pos(), fmt.Sprintf(
						"time.%s reads the wall clock; simulator code must use virtual time (sim.Time)", fn.Name()))
				}
				if isGlobalRand(fn) {
					report(node.Pos(), fmt.Sprintf(
						"global rand.%s is unseeded and non-replayable; draw from a seeded *rand.Rand", fn.Name()))
				}
			case *ast.RangeStmt:
				checkMapRange(pkg, node, report)
			}
			return true
		})
	}
}

// isGlobalRand reports whether fn is a package-level math/rand
// function (as opposed to a method on a seeded *rand.Rand).
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // method on *rand.Rand / rand.Source: seeded, fine
	}
	return !globalRandAllowed[fn.Name()]
}

// checkMapRange flags `for ... range m` over a map whose body reaches
// an ordered sink: the iteration order is randomized, so whatever the
// sink records would differ between runs.
func checkMapRange(pkg *Pkg, rng *ast.RangeStmt, report func(pos token.Pos, msg string)) {
	t := pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sink := orderedSink(pkg, call); sink != "" {
			report(rng.Pos(), fmt.Sprintf(
				"map iteration order is randomized but this loop feeds %s, an ordered output; iterate a sorted slice instead", sink))
			return false // one diagnostic per loop/sink pair is plenty
		}
		return true
	})
}

// orderedSink names the ordered output a call writes to, or "".
// Ordered outputs are trace-span emission (insertion-ordered event
// streams compared byte-for-byte by the golden tests) and MPI sends
// (wire order shifts matching and therefore virtual timing).
func orderedSink(pkg *Pkg, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return ""
	}
	switch {
	case funcFrom(fn, "scaffe/internal/trace", "Add", "AddNode"):
		return "trace." + fn.Name()
	case funcFrom(fn, "scaffe/internal/sched", "NodeSpan"):
		return "Tracer.NodeSpan"
	case funcFrom(fn, "scaffe/internal/mpi", "Isend", "Send", "Ibcast", "Bcast"):
		return "mpi." + fn.Name()
	case funcFrom(fn, "scaffe/internal/coll", "Reduce", "Allreduce"):
		return "coll." + fn.Name()
	}
	return ""
}
