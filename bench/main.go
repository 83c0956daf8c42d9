// Command bench is the repository's benchmark: five workloads measured on
// two clocks (virtual time, the paper's result; host time, what the
// simulator costs), with a traced run that attributes host CPU to the
// system's packages and walks a per-layer ladder. See README.md.
//
// The driver runs, from the repository root,
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	o := options{outDir: spanDir}
	var trace int
	var selfcheck, printManifest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run, or \"all\" for each in a process of its own")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: Config.Seed, the synthetic-dataset seed, the chaos base seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed loop measures")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run, which prints the per-layer metrics and writes the span file")
	flag.BoolVar(&o.smoke, "smoke", false, "token sizes (8 ranks, 1 iteration, 1 rep): checks the plumbing, measures nothing")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced suite twice (A/A), ten seeds a set from -seed on, and compare the two against the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case printManifest:
		fmt.Print(manifest())
	case selfcheck:
		if !selfCheck(o) {
			os.Exit(1)
		}
	case o.workload == "all":
		ok := true
		for _, w := range workloads {
			o.workload = w.Name
			rep, text, err := runChild(o)
			fmt.Println(text)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			ok = ok && rep.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		load := loadAvg()
		rep, err := runWorkload(o, start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Printf("workload %s  seed %d  seconds %g  trace %d  smoke %v\n", o.workload, o.seed, o.seconds, trace, o.smoke)
		fmt.Println(hostFacts())
		for _, line := range rep.text {
			fmt.Println(line)
		}
		fmt.Printf("loadavg_1m %s at start, %s at end\n", load, loadAvg())
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// runChild runs one workload in a process of its own, so that its
// allocations and resident set are its own, passes its output through and
// returns the decoded last line.
func runChild(o options) (*report, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	args := []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("-smoke=%v", o.smoke),
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	var rep report
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if jerr := json.Unmarshal([]byte(last), &rep); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, text, fmt.Errorf("%s: %w", o.workload, err)
	}
	// A child that printed a result and exited 1 reported failed ops; the
	// result says so.
	return &rep, text, nil
}

// hostFacts is the line stamped into every run's output, so that an
// outlier can be told from a regression.
func hostFacts() string {
	return fmt.Sprintf("host: NumCPU %d  GOMAXPROCS %d  %s %s/%s  rev %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitRev())
}

// gitRev is `git rev-parse --short HEAD` with a -dirty marker, or
// "unknown" where the checkout is not a git repository.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// loadAvg is the 1-minute load average, or "?" off Linux.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "?"
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "?"
}
