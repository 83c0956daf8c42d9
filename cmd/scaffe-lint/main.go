// Command scaffe-lint runs the repository's static analyzer over the
// given package patterns and prints one diagnostic per line as
//
//	file:line:col: [pass] message
//
// Exit status: 0 clean, 1 diagnostics found, 2 usage or load error.
// See internal/lint for the pass catalogue and annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"scaffe/internal/lint"
)

func main() {
	mod := flag.String("mod", "", "module root directory (default: nearest go.mod above the working directory)")
	list := flag.Bool("passes", false, "list the analysis passes and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: scaffe-lint [-mod dir] [-passes] [pattern ...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Patterns are package directories relative to the module root\n")
		fmt.Fprintf(flag.CommandLine.Output(), "(\"./...\", \"./internal/core\") or module import paths. Default: ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}

	moduleDir := *mod
	if moduleDir == "" {
		var err error
		moduleDir, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := lint.Analyze(moduleDir, patterns)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scaffe-lint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scaffe-lint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
