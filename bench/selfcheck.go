package main

import (
	"fmt"
	"math"
	"strings"
)

// selfCheckRuns is the number of runs in each set of the A/A test, the
// driver's own: seeds seed..seed+9.
const selfCheckRuns = 10

// selfCheck is the A/A test the bounds are set from, and the driver's own
// acceptance test run locally: two sets of runs of the same code, each
// with ten seeds per workload. For every workload and end-to-end metric it
// prints both medians, their relative difference, the spread of each set
// (first to third quartile over the median) and PASS or FAIL: a FAIL is a
// median that moved against the metric's direction by more than its
// bound, or a spread wider than the bound. setup_s is exempt from the
// spread test, as it is in the driver. The deterministic metrics (virt_*
// and final_loss) are held to more than their bounds, which had to be
// sized to the spread between seeds: the two runs on one seed must agree
// exactly. With -workload it checks that workload alone.
func selfCheck(o options) bool {
	pass := true
	only := o.workload
	for _, w := range workloads {
		if only != "" && only != "all" && only != w.Name {
			continue
		}
		o.workload = w.Name
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for r := 0; r < selfCheckRuns; r++ {
				ro := o
				ro.seed = o.seed + int64(r)
				rep, text, err := runChild(ro)
				if err != nil {
					fmt.Println(text)
					fmt.Printf("%s set %d seed %d: %v\n", w.Name, set+1, ro.seed, err)
					return false
				}
				if !rep.Correct {
					fmt.Printf("%s set %d seed %d: %d of %d ops failed\n", w.Name, set+1, ro.seed, rep.Failed, rep.Attempted)
					pass = false
				}
				for name, v := range rep.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("%s (%d runs a set)\n", w.Name, selfCheckRuns)
		fmt.Printf("  %-24s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "PASS"
			if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "FAIL"
			}
			if deterministic(d.Name) {
				verdict += ", exact per seed"
				for i := range a {
					if a[i] != b[i] {
						verdict = fmt.Sprintf("FAIL: seed %d gave %v, then %v", o.seed+int64(i), a[i], b[i])
						break
					}
				}
			}
			pass = pass && !strings.HasPrefix(verdict, "FAIL")
			fmt.Printf("  %-24s %14.6f %14.6f %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				d.Name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return pass
}

// deterministic reports whether an end-to-end metric repeats exactly on
// one seed: the virtual figures and the training loss.
func deterministic(metric string) bool {
	return strings.HasPrefix(metric, "virt_") || metric == "final_loss"
}
