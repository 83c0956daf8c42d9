package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Pkg is one parsed and type-checked package ready for analysis.
type Pkg struct {
	// Path is the import path ("scaffe/internal/coll").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file of the load (shared across packages).
	Fset *token.FileSet
	// Files are the package's non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// Loader parses and type-checks packages of one module from source.
// It implements types.Importer: imports with the module's path prefix
// resolve to module directories; everything else (the standard
// library) goes through go/importer's source importer, so the whole
// load works offline against GOROOT sources with no x/tools
// dependency.
type Loader struct {
	// ModuleDir is the module root (the directory holding go.mod).
	ModuleDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Pkg
}

var (
	sharedMu      sync.Mutex
	sharedLoaders = make(map[string]*Loader)
)

// SharedLoader returns a process-wide cached loader for moduleDir.
// Parsing and type-checking dominate the linter's wall time, and the
// fixture harness plus the repo self-check call Analyze a dozen times
// over the same module — sharing the loader means each package
// type-checks once per process. Callers must not mutate sources
// between calls within one process (the CLI is one-shot; tests do
// not).
func SharedLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	sharedLoaders[abs] = l
	return l, nil
}

// NewLoader creates a loader rooted at moduleDir, reading the module
// path from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Pkg),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer for the type-checker: module
// packages load from source under ModuleDir, the rest delegates to the
// stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load resolves the given patterns ("./...", "./dir/...", "./dir",
// "dir", or a module import path) and returns the matched packages,
// loaded and type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Pkg, error) {
	seen := make(map[string]bool)
	var pkgs []*Pkg
	add := func(dir, path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(filepath.ToSlash(pat), "/")
		if after, ok := strings.CutPrefix(pat, l.ModulePath); ok && (after == "" || after[0] == '/') {
			pat = "." + after
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		root := filepath.Join(l.ModuleDir, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("lint: no Go files in %s", root)
			}
			if err := add(root, l.importPathFor(root)); err != nil {
				return nil, err
			}
			continue
		}
		var dirs []string
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs = append(dirs, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sort.Strings(dirs)
		for _, dir := range dirs {
			if err := add(dir, l.importPathFor(dir)); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isAnalyzedFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isAnalyzedFile reports whether a file in dir belongs to the analyzed
// (non-test) part of its package as go build would compile it for the
// host: build constraints and _GOOS/_GOARCH suffixes are honoured, so
// per-architecture files of one package do not collide. A file whose
// constraint cannot be read is kept, and the parser reports it.
func isAnalyzedFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return match || err != nil
}

// LoadDir parses and type-checks the package in dir under the given
// import path. Results are cached by import path, so a package
// analyzed directly and imported by another loads once.
func (l *Loader) LoadDir(dir, path string) (*Pkg, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isAnalyzedFile(dir, e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Pkg{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
