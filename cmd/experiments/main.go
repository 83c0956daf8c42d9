// Command experiments regenerates the paper's evaluation tables and
// figures from the simulator.
//
// Usage:
//
//	experiments [-run id] [-iters n] [-maxgpus n] [-o file] [-cpuprofile file] [-memprofile file]
//
// With no -run flag it executes every experiment in order and writes a
// combined markdown report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scaffe/internal/experiments"
	"scaffe/internal/prof"
)

func main() {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	runID := flag.String("run", "", "experiment id ("+strings.Join(ids, ", ")+"; -list describes each); empty = all")
	iters := flag.Int("iters", 0, "override training iterations per run (0 = experiment defaults)")
	maxGPUs := flag.Int("maxgpus", 0, "cap the GPU sweep (0 = paper scale, 160)")
	out := flag.String("o", "", "write the markdown report to this file as well as stdout")
	list := flag.Bool("list", false, "list experiment ids and exit")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Desc)
		}
		return
	}

	opts := experiments.Options{Iterations: *iters, MaxGPUs: *maxGPUs}
	var runners []experiments.Runner
	if *runID == "" {
		runners = experiments.All()
	} else {
		r, err := experiments.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var report strings.Builder
	report.WriteString("# S-Caffe reproduction — regenerated evaluation\n\n")
	for _, r := range runners {
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", r.ID, r.Desc)
		table, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		report.WriteString(table.Markdown())
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(report.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}
