package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The flow engine is a small AST-level dataflow used by the mpi pass:
// certain calls *create* a tracked value (a non-blocking request, a
// checksummed receive) that must be *used* again before the function
// can return. Any later mention of the variable counts as reaching its
// Wait/Verify or escaping (returned, stored, appended, passed on) — the
// analysis is deliberately optimistic so real code patterns like
// conditional waits never false-positive. What it does catch, on every
// lexical path:
//
//   - a creator call whose result is discarded outright,
//   - a tracked variable never mentioned again before a return,
//   - a tracked variable that falls out of scope untouched.

// flowSpec configures one instance of the engine.
type flowSpec struct {
	// creator names the tracked-value constructor a call resolves to,
	// or "" if the call is not a creator.
	creator func(pkg *Pkg, call *ast.CallExpr) string
	// discardMsg renders the "result thrown away" diagnostic.
	discardMsg func(creator string) string
	// leakMsg renders the "never reaches its consumer" diagnostic.
	leakMsg func(creator string) string
}

// flowVar is one live tracked value.
type flowVar struct {
	creator string
	pos     token.Pos // creation site, for reporting
	depth   int       // block depth of the variable's declaration
}

type flowEngine struct {
	pkg    *Pkg
	spec   flowSpec
	report func(token.Pos, string)
	live   map[types.Object]*flowVar
	depths map[types.Object]int // declaration depth of seen variables
}

// runFlow analyzes every function body of the package under spec.
func runFlow(pkg *Pkg, spec flowSpec, report func(token.Pos, string)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			e := &flowEngine{
				pkg: pkg, spec: spec, report: report,
				live:   make(map[types.Object]*flowVar),
				depths: make(map[types.Object]int),
			}
			e.walkBlock(body.List, 0)
			e.reportScope(0) // function end = last return path
			return true      // recurse: nested closures analyzed separately
		})
	}
}

// reportScope flags and drops every live variable declared at or below
// the given depth (its scope is ending).
func (e *flowEngine) reportScope(depth int) {
	for obj, v := range e.live {
		if v.depth >= depth {
			e.report(v.pos, e.spec.leakMsg(v.creator))
			delete(e.live, obj)
		}
	}
}

// reportReturn flags every live variable: a return path is ending.
func (e *flowEngine) reportReturn() {
	for obj, v := range e.live {
		e.report(v.pos, e.spec.leakMsg(v.creator))
		delete(e.live, obj)
	}
}

// resolveUses deletes from the live set every tracked variable
// mentioned anywhere inside n — the optimistic "any use counts" rule.
func (e *flowEngine) resolveUses(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := e.pkg.Info.Uses[id]; obj != nil {
				delete(e.live, obj)
			}
		}
		return true
	})
}

// creatorOf unwraps parens and reports whether expr is a bare creator
// call.
func (e *flowEngine) creatorOf(expr ast.Expr) (*ast.CallExpr, string) {
	expr = ast.Unparen(expr)
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	name := e.spec.creator(e.pkg, call)
	if name == "" {
		return nil, ""
	}
	return call, name
}

// walkBlock interprets a statement list at the given block depth.
func (e *flowEngine) walkBlock(stmts []ast.Stmt, depth int) {
	for _, s := range stmts {
		e.walkStmt(s, depth)
	}
	e.reportScope(depth)
}

// branch runs a sub-statement on the shared state at depth+1. The
// engine is optimistic: uses inside any branch resolve the variable
// for all paths, while returns inside the branch report what was live
// at that point.
func (e *flowEngine) branch(s ast.Stmt, depth int) {
	if s == nil {
		return
	}
	if b, ok := s.(*ast.BlockStmt); ok {
		e.walkBlock(b.List, depth+1)
		return
	}
	e.walkStmt(s, depth+1)
}

func (e *flowEngine) walkStmt(s ast.Stmt, depth int) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, name := e.creatorOf(st.X); call != nil {
			e.report(call.Pos(), e.spec.discardMsg(name))
			// Arguments may still use tracked vars (r.Wait(req)).
			for _, a := range call.Args {
				e.resolveUses(a)
			}
			return
		}
		e.resolveUses(st.X)

	case *ast.AssignStmt:
		// Resolve uses on the right-hand side (and in index/selector
		// expressions on the left) before tracking new creations.
		for _, rhs := range st.Rhs {
			if call, _ := e.creatorOf(rhs); call != nil {
				for _, a := range call.Args {
					e.resolveUses(a)
				}
				continue
			}
			e.resolveUses(rhs)
		}
		for _, lhs := range st.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				e.resolveUses(lhs) // x.field = ..., m[k] = ...
			}
		}
		if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			if call, name := e.creatorOf(st.Rhs[0]); call != nil {
				e.trackAssign(st.Lhs[0], call, name, st.Tok, depth)
			}
		}
		if st.Tok == token.DEFINE {
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := e.pkg.Info.Defs[id]; obj != nil {
						if _, seen := e.depths[obj]; !seen {
							e.depths[obj] = depth
						}
					}
				}
			}
		}

	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					e.resolveUses(v)
				}
				for i, id := range vs.Names {
					if obj := e.pkg.Info.Defs[id]; obj != nil {
						e.depths[obj] = depth
					}
					if i < len(vs.Values) {
						if call, name := e.creatorOf(vs.Values[i]); call != nil {
							e.trackIdent(id, call, name, depth)
						}
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, r := range st.Results {
			e.resolveUses(r)
		}
		e.reportReturn()

	case *ast.IfStmt:
		e.walkStmt2(st.Init, depth)
		e.resolveUses(st.Cond)
		e.branch(st.Body, depth)
		e.branch(st.Else, depth)

	case *ast.ForStmt:
		e.walkStmt2(st.Init, depth)
		e.resolveUses(st.Cond)
		e.branch(st.Body, depth)
		e.walkStmt2(st.Post, depth)

	case *ast.RangeStmt:
		e.resolveUses(st.X)
		e.branch(st.Body, depth)

	case *ast.SwitchStmt:
		e.walkStmt2(st.Init, depth)
		e.resolveUses(st.Tag)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, x := range cc.List {
					e.resolveUses(x)
				}
				e.walkBlock(cc.Body, depth+1)
			}
		}

	case *ast.TypeSwitchStmt:
		e.walkStmt2(st.Init, depth)
		e.walkStmt2(st.Assign, depth)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				e.walkBlock(cc.Body, depth+1)
			}
		}

	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				e.walkStmt2(cc.Comm, depth+1)
				e.walkBlock(cc.Body, depth+1)
			}
		}

	case *ast.BlockStmt:
		e.walkBlock(st.List, depth+1)

	case *ast.LabeledStmt:
		e.walkStmt(st.Stmt, depth)

	case *ast.DeferStmt:
		e.resolveUses(st.Call)

	case *ast.GoStmt:
		e.resolveUses(st.Call)

	case *ast.SendStmt:
		e.resolveUses(st.Chan)
		e.resolveUses(st.Value)

	case *ast.IncDecStmt:
		e.resolveUses(st.X)

	case nil, *ast.BranchStmt, *ast.EmptyStmt:
		// Conservatively nothing: break/continue/goto keep state.

	default:
		e.resolveUses(s)
	}
}

// walkStmt2 walks an optional sub-statement at the same depth.
func (e *flowEngine) walkStmt2(s ast.Stmt, depth int) {
	if s != nil {
		e.walkStmt(s, depth)
	}
}

// trackAssign begins tracking the LHS of `lhs = creatorCall`.
func (e *flowEngine) trackAssign(lhs ast.Expr, call *ast.CallExpr, name string, tok token.Token, depth int) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // stored into a field/index: escapes
	}
	if id.Name == "_" {
		e.report(call.Pos(), e.spec.discardMsg(name))
		return
	}
	if tok == token.DEFINE {
		e.trackIdent(id, call, name, depth)
		return
	}
	obj := e.pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	declDepth, seen := e.depths[obj]
	if !seen {
		// Declared outside the walked body (package var, named result,
		// closure capture): its lifetime exceeds the analysis, skip.
		return
	}
	e.beginTracking(obj, call, name, declDepth)
}

// trackIdent begins tracking a variable introduced by := or var.
func (e *flowEngine) trackIdent(id *ast.Ident, call *ast.CallExpr, name string, depth int) {
	if id.Name == "_" {
		e.report(call.Pos(), e.spec.discardMsg(name))
		return
	}
	obj := e.pkg.Info.Defs[id]
	if obj == nil {
		return
	}
	e.depths[obj] = depth
	e.beginTracking(obj, call, name, depth)
}

// beginTracking records a new live value; overwriting a still-live one
// leaks the previous value.
func (e *flowEngine) beginTracking(obj types.Object, call *ast.CallExpr, name string, declDepth int) {
	if prev, ok := e.live[obj]; ok {
		e.report(prev.pos, e.spec.leakMsg(prev.creator))
	}
	e.live[obj] = &flowVar{creator: name, pos: call.Pos(), depth: declDepth}
}

// --- shared type-resolution helpers ---------------------------------------

// calleeFunc resolves a call to the *types.Func it invokes (method or
// package function) or nil.
func calleeFunc(pkg *Pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcFrom reports whether fn is declared in the package with the
// given import path and has one of the given names.
func funcFrom(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
