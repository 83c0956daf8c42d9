package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Contract propagation (DESIGN.md §15): `//scaffe:hotpath` is an
// obligation on everything the annotated function may reach, not just
// on its own frame. NewProgram builds the module call graph once and
// floods the obligation over it; the hotpath pass then checks every
// obligated node, naming the annotated root in the diagnostic
// ("[hotpath via sched.laneRun.Step → coll.Ring.Reduce]") so a finding
// three calls deep is still actionable.
//
// The escape hatch is `//scaffe:coldpath <reason>`:
//
//   - in a function's doc comment, the whole function is a declared
//     slow path — obligations stop at its boundary (its body is not
//     checked, and nothing propagates through it);
//   - on its own line inside a body, the call(s) on that line and the
//     next are a deliberate slow-path departure — the edge exists in
//     the graph but carries no obligation.
//
// Like nolint, the reason is mandatory; a bare directive is itself a
// diagnostic, so the suppression inventory stays reviewable.

const coldpathDirective = "//scaffe:coldpath"

var coldpathRe = regexp.MustCompile(`^//scaffe:coldpath(?:\s+(.*\S))?\s*$`)

// Program is the analyzed module: the loaded packages, the call graph
// over them, and the propagated obligation sets.
type Program struct {
	Pkgs  []*Pkg
	Graph *CallGraph

	// Hot maps every node holding the hotpath obligation to the call
	// chain from an annotated root to the node, inclusive. Directly
	// annotated nodes map to their own name.
	Hot map[*FuncNode]string

	// hygiene collects directive-grammar violations (coldpath without a
	// reason), reported under the nolint pass.
	hygiene []hygieneIssue
}

type hygieneIssue struct {
	pkg *Pkg
	pos token.Pos
	msg string
}

// NewProgram builds the call graph and floods the contract.
func NewProgram(pkgs []*Pkg) *Program {
	p := &Program{
		Pkgs:  pkgs,
		Graph: buildCallGraph(pkgs),
		Hot:   make(map[*FuncNode]string),
	}
	p.propagate()
	p.collectHygiene()
	return p
}

// propagate floods the hotpath obligation from its directly annotated
// roots through every non-cold edge.
func (p *Program) propagate() {
	out := p.Hot
	var queue []*FuncNode
	for _, n := range p.Graph.Nodes {
		if n.Hot && n.ColdReason == "" {
			out[n] = n.Name
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			if e.cold {
				continue
			}
			t := e.to
			if t.ColdReason != "" {
				continue
			}
			if _, seen := out[t]; seen {
				continue
			}
			out[t] = out[n] + " → " + t.Name
			queue = append(queue, t)
		}
	}
}

// chainSuffix renders the "via" suffix for a propagated (not directly
// annotated) obligation, or "".
func chainSuffix(chain string, direct bool) string {
	if direct || chain == "" {
		return ""
	}
	return " [hotpath via " + chain + "]"
}

// coldpathReason extracts a declaration-level coldpath reason from fd's
// doc comment, or "".
func coldpathReason(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if m := coldpathRe.FindStringSubmatch(c.Text); m != nil {
			if m[1] != "" {
				return m[1]
			}
			// Bare directive: still honored so a finding is not doubly
			// reported; the missing reason is flagged by hygiene.
			return "(unreasoned)"
		}
	}
	return ""
}

// coldCallLines returns the source lines of n's file on which call-site
// coldpath directives suppress obligation flow: the directive's own
// line and the one after it, matching nolint's reach.
func coldCallLines(pkg *Pkg, n *FuncNode) map[int]bool {
	f := fileOf(pkg, n.Pos())
	if f == nil {
		return nil
	}
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, coldpathDirective) {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			line := pkg.Fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// fileOf locates the parsed file containing pos.
func fileOf(pkg *Pkg, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// collectHygiene scans every comment of the load for malformed coldpath
// directives.
func (p *Program) collectHygiene() {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := coldpathRe.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.HasPrefix(c.Text, coldpathDirective) {
							p.hygiene = append(p.hygiene, hygieneIssue{pkg, c.Pos(),
								"malformed //scaffe:coldpath directive"})
						}
						continue
					}
					if m[1] == "" {
						p.hygiene = append(p.hygiene, hygieneIssue{pkg, c.Pos(),
							"//scaffe:coldpath requires a reason, like nolint"})
					}
				}
			}
		}
	}
}
