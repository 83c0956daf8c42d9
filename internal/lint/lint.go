// Package lint implements scaffe-lint, the repository's static
// analyzer. It enforces at compile time the invariants the runtime
// test suite can only catch after the fact:
//
//   - determinism: the simulator-facing packages must not consult wall
//     clocks or global randomness, and must not feed unordered map
//     iteration into ordered outputs (trace spans, wire sends).
//   - mpi: every non-blocking request must reach a Wait/Test on every
//     return path, tags must be named constants, helper-thread
//     closures must not issue blocking MPI calls, and kernel-context
//     code (RunEvent hooks, Kernel.At callbacks — where the
//     delivery-perturbation plane runs) must not construct requests
//     at all.
//
// Every pass reads one function body at a time. That the iteration
// allocates nothing is measured at run time instead, by
// core.TestSteadyStateIterationAllocBudget over every design and
// reducer (DESIGN.md §10 records which gate catches what).
//
// The analyzer is pure stdlib (go/parser + go/types with a
// module-aware source importer), so it runs offline with no
// third-party dependencies.
//
// Annotation grammar:
//
//	//scaffe:nolint <pass> <reason>
//	    On (or immediately above) the offending line: suppresses that
//	    pass's diagnostics for the line. The reason is mandatory and
//	    enforced by the linter itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, printable as "file:line:col: [pass] msg".
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Pass is one analysis over a type-checked package.
type Pass struct {
	// Name tags diagnostics and is the key of //scaffe:nolint.
	Name string
	// Doc is a one-line description (for -help and DESIGN.md).
	Doc string
	// Applies restricts the pass to certain import paths; nil means
	// every analyzed package.
	Applies func(pkgPath string) bool
	// Run reports findings for one package via report (positions
	// inside pkg.Fset).
	Run func(pkg *Pkg, report func(token.Pos, string))
}

// deterministicScope lists the import-path prefixes whose determinism
// the repo's golden tests pin bit-exactly; the determinism pass applies
// only there (plus lint fixtures, which exercise every pass).
var deterministicScope = []string{
	"scaffe/internal/sim",
	"scaffe/internal/core",
	"scaffe/internal/sched",
	"scaffe/internal/coll",
	"scaffe/internal/mpi",
}

func inDeterministicScope(path string) bool {
	for _, p := range deterministicScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return strings.Contains(path, "lint/testdata")
}

// Passes returns the full pass list in reporting order.
func Passes() []*Pass {
	return []*Pass{
		{
			Name:    "determinism",
			Doc:     "no wall clocks, global math/rand, or map-order-dependent ordered outputs",
			Applies: inDeterministicScope,
			Run:     runDeterminism,
		},
		{
			Name: "mpi",
			Doc:  "requests reach Wait/Test on all paths, tags are named constants, helpers issue no blocking MPI, kernel-context hooks (RunEvent, Kernel.At) post no requests",
			Run:  runMPI,
		},
	}
}

// passNames is the set accepted by //scaffe:nolint.
func passNames() map[string]bool {
	m := map[string]bool{"all": true}
	for _, p := range Passes() {
		m[p.Name] = true
	}
	return m
}

// Analyze loads the packages matched by patterns under moduleDir
// (through the process-wide shared loader, so repeated invocations
// reuse the type-checked load), runs every applicable pass, applies
// //scaffe:nolint suppressions, and returns the surviving diagnostics
// sorted by position.
func Analyze(moduleDir string, patterns []string) ([]Diagnostic, error) {
	loader, err := SharedLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyzePackage(pkg)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// analyzePackage runs every applicable pass over one loaded package
// and post-processes nolint suppressions.
func analyzePackage(pkg *Pkg) []Diagnostic {
	var diags []Diagnostic
	for _, pass := range Passes() {
		if pass.Applies != nil && !pass.Applies(pkg.Path) {
			continue
		}
		p := pass
		p.Run(pkg, func(pos token.Pos, msg string) {
			diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Pass: p.Name, Message: msg})
		})
	}
	return applyNolint(pkg, diags)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}

// --- //scaffe:nolint -------------------------------------------------------

const nolintPrefix = "//scaffe:nolint"

var nolintRe = regexp.MustCompile(`^//scaffe:nolint(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// nolintDirective is one parsed suppression comment.
type nolintDirective struct {
	pass   string
	reason string
	line   int
	pos    token.Pos
}

// nolintDirectives extracts every //scaffe:nolint comment of a file.
func nolintDirectives(fset *token.FileSet, f *ast.File) []nolintDirective {
	var ds []nolintDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, nolintPrefix) {
				continue
			}
			m := nolintRe.FindStringSubmatch(c.Text)
			d := nolintDirective{line: fset.Position(c.Pos()).Line, pos: c.Pos()}
			if m != nil {
				d.pass, d.reason = m[1], m[2]
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// applyNolint removes diagnostics suppressed by a well-formed nolint
// directive on the same or preceding line and adds diagnostics for
// malformed directives (the reason is mandatory).
func applyNolint(pkg *Pkg, diags []Diagnostic) []Diagnostic {
	known := passNames()
	// byFileLine[file][line] -> passes suppressed there.
	byFileLine := make(map[string]map[int]map[string]bool)
	var out []Diagnostic
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		for _, d := range nolintDirectives(pkg.Fset, f) {
			switch {
			case d.pass == "":
				out = append(out, Diagnostic{
					Pos: pkg.Fset.Position(d.pos), Pass: "nolint",
					Message: "malformed //scaffe:nolint: want \"//scaffe:nolint <pass> <reason>\"",
				})
				continue
			case !known[d.pass]:
				out = append(out, Diagnostic{
					Pos: pkg.Fset.Position(d.pos), Pass: "nolint",
					Message: fmt.Sprintf("//scaffe:nolint names unknown pass %q", d.pass),
				})
				continue
			case d.reason == "":
				out = append(out, Diagnostic{
					Pos: pkg.Fset.Position(d.pos), Pass: "nolint",
					Message: fmt.Sprintf("//scaffe:nolint %s needs a non-empty reason", d.pass),
				})
				continue
			}
			lines := byFileLine[fname]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				byFileLine[fname] = lines
			}
			// A directive covers its own line and the next one, so it
			// can sit on the offending line or on its own line above.
			for _, ln := range []int{d.line, d.line + 1} {
				if lines[ln] == nil {
					lines[ln] = make(map[string]bool)
				}
				lines[ln][d.pass] = true
			}
		}
	}
	for _, d := range diags {
		if lines := byFileLine[d.Pos.Filename]; lines != nil {
			if sup := lines[d.Pos.Line]; sup != nil && (sup[d.Pass] || sup["all"]) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
