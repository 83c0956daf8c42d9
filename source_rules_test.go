package scaffe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// replayScope holds the packages whose virtual times and losses the
// goldens pin bit-exactly: nothing in them may read the wall clock or
// draw from the global random source.
var replayScope = []string{"internal/sim", "internal/core", "internal/sched", "internal/coll", "internal/mpi"}

// randAllowed are the math/rand names that draw nothing from the global
// source: the seeded constructors and the types they return.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// blockingForms are the blocking calls of the proc coroutine's runtime,
// by method name and argument count: Proc.Wait/Sleep, Completion.FireFrom,
// Kernel.Spawn, mpi's Rank.Send/Recv/Wait/Sleep and Comm.Barrier,
// Reducer.Reduce, Ring.Allreduce, Graph.Execute, and World.Run (one
// func) and Walk.Run (four arguments). Every run drives its procs as
// steppers instead (DESIGN.md §17).
var blockingForms = map[string][]int{
	"Spawn": {2}, "FireFrom": {1}, "Sleep": {1}, "Wait": {1},
	"Send": {5}, "Recv": {4}, "Barrier": {1}, "Reduce": {3}, "Allreduce": {3},
	"Execute": {2}, "Run": {1, 4},
}

// TestSourceRules checks the rules about the source that no run-time
// gate sees (DESIGN.md §10). A wall-clock read or a global random draw
// in the replay scope would make runs differ only on some hosts or some
// days. An integer literal passed as a message tag may collide with
// another site's tag, and then two messages cross their matches only when
// both are in flight. A test that drives its ranks through a blocking
// form keeps alive a second runtime that no run uses: only bench/ and
// each package's blocking_test.go, the mechanism's own tests, may call
// one. It parses the module's files, resolving package names through
// each file's imports, so a renamed import is caught too.
func TestSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	tests := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if strings.HasSuffix(path, "_test.go") {
			tests[filepath.ToSlash(path)] = f
		} else {
			files[filepath.ToSlash(path)] = f
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wall clocks and global randomness.
	scanned := map[string]bool{}
	for path, f := range files {
		i := slices.IndexFunc(replayScope, func(dir string) bool { return strings.HasPrefix(path, dir+"/") })
		if i < 0 {
			continue
		}
		scanned[replayScope[i]] = true
		pkgs := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; pkgs[id.Name] {
			case "time":
				if name == "Now" || name == "Since" {
					t.Errorf("%s: time.%s reads the wall clock; the simulator's clock is sim.Time", fset.Position(sel.Pos()), name)
				}
			case "math/rand", "math/rand/v2":
				if !randAllowed[name] {
					t.Errorf("%s: rand.%s is not a seeded constructor; draw from a *rand.Rand made by rand.New", fset.Position(sel.Pos()), name)
				}
			}
			return true
		})
	}
	for _, dir := range replayScope {
		if !scanned[dir] {
			t.Errorf("no Go files found under %s", dir)
		}
	}

	// Tag literals. tagParams maps a function or method name to the
	// positions at which it takes a parameter named tag: mpi's and
	// coll's, and those of any package that hands a tag on to them, such
	// as core's addReduce.
	tagParams := map[string][]int{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			i := 0
			for _, field := range fn.Type.Params.List {
				for _, name := range field.Names {
					if at := tagParams[fn.Name.Name]; name.Name == "tag" && !slices.Contains(at, i) {
						tagParams[fn.Name.Name] = append(at, i)
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
		}
	}
	for _, name := range []string{"Isend", "Irecv", "IrecvSummed", "Reduce", "Allreduce", "addReduce"} {
		if len(tagParams[name]) == 0 {
			t.Errorf("found no tag parameter of %s", name)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			for _, i := range tagParams[name] {
				if i < len(call.Args) && isIntLiteral(call.Args[i]) {
					t.Errorf("%s: integer literal passed as the tag of %s; name it as a constant beside the others", fset.Position(call.Args[i].Pos()), name)
				}
			}
			return true
		})
	}

	// Blocking forms in tests.
	for path, f := range tests {
		if strings.HasPrefix(path, "bench/") || filepath.Base(path) == "blocking_test.go" {
			continue
		}
		pkgs := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && pkgs[id.Name] != "" {
				return true // a package's function, not a method
			}
			name := sel.Sel.Name
			if !slices.Contains(blockingForms[name], len(call.Args)) {
				return true
			}
			if name == "Run" && len(call.Args) == 1 {
				if _, ok := call.Args[0].(*ast.FuncLit); !ok {
					return true
				}
			}
			t.Errorf("%s: %s is a blocking form; drive the ranks as steppers (SpawnSteps, World.RunSteps), or move a test of the mechanism itself to blocking_test.go", fset.Position(call.Pos()), name)
			return true
		})
	}
}

// importNames maps each name a file refers to an imported package by to
// the package's import path.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if path == "math/rand/v2" {
			name = "rand"
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		names[name] = path
	}
	return names
}

// isIntLiteral reports whether e is an integer literal, possibly signed
// or parenthesised.
func isIntLiteral(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.UnaryExpr:
		return (e.Op == token.SUB || e.Op == token.ADD) && isIntLiteral(e.X)
	}
	return false
}
