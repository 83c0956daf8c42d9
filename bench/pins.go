package main

import "fmt"

// The per-seed gate. virt_ms_per_op and final_loss repeat exactly on one
// seed but differ between seeds on chaos-cifar10-32 and real-cifar10-4, so
// their bounds in BENCHMARK.json, which the driver holds against the
// spread over seeds, are too wide to catch what these metrics exist to
// catch. The values below were printed by this program at the commit that
// defined the benchmark; a run whose value is worse than its pin, by more
// than the tolerance, has a failed op. A better value passes: both
// metrics are lower-is-better, and a later correction of the benchmark
// pins it anew. Seeds 1-16 are pinned (1 is the development seed, 7 the
// held-out one, and the A/A evidence in README.md is seeds 1-10 and
// 7-16); at any other seed the seed-dependent values are not gated.
const (
	// virtTol absorbs a last-digit difference of float64 arithmetic
	// between platforms; a change of the model moves far more.
	virtTol = 1e-6
	// lossTol is the issue's bound on final_loss.
	lossTol = 1e-3
)

// pinnedVirtMs is virt_ms_per_op where it is the same at every seed.
var pinnedVirtMs = map[string]float64{
	"train-googlenet-160":  113.41116,
	"scale-googlenet-1024": 168.9653,
	"reduce-osu-160":       201.010261,
	"real-cifar10-4":       6.097947,
}

// pinnedChaosVirtMs is virt_ms_per_op of chaos-cifar10-32 by seed.
var pinnedChaosVirtMs = map[int64]float64{
	1:  8.494891551630435,
	2:  8.395790934782609,
	3:  8.45710885326087,
	4:  8.517395217391305,
	5:  8.528784163043479,
	6:  8.612322820652173,
	7:  8.512051548913043,
	8:  8.425520173913045,
	9:  8.408639774456521,
	10: 8.37593149728261,
	11: 8.262477494565218,
	12: 8.248539953804348,
	13: 8.232715364130435,
	14: 8.357736395833333,
	15: 8.270113768229168,
	16: 8.185658848958333,
}

// pinnedFinalLoss is final_loss of real-cifar10-4 by seed.
var pinnedFinalLoss = map[int64]float64{
	1:  2.3380820751190186,
	2:  2.2989141941070557,
	3:  2.3647162914276123,
	4:  2.3152811527252197,
	5:  2.278355121612549,
	6:  2.3028786182403564,
	7:  2.296945571899414,
	8:  2.3752031326293945,
	9:  2.3200526237487793,
	10: 2.357090473175049,
	11: 2.303405284881592,
	12: 2.3743364810943604,
	13: 2.328679323196411,
	14: 2.3173656463623047,
	15: 2.234964370727539,
	16: 2.2383346557617188,
}

// checkPins compares a run's virtual metrics with the pinned values and
// returns one line per value that got worse.
func checkPins(workload string, seed int64, virt map[string]float64) []string {
	var notes []string
	check := func(metric string, pin float64, pinned bool, tol float64) {
		if got := virt[metric]; pinned && got > pin*(1+tol) {
			notes = append(notes, fmt.Sprintf("%s %v at seed %d is worse than the pinned %v", metric, got, seed, pin))
		}
	}
	switch workload {
	case "chaos-cifar10-32":
		pin, ok := pinnedChaosVirtMs[seed]
		check("virt_ms_per_op", pin, ok, virtTol)
	case "real-cifar10-4":
		pin, ok := pinnedFinalLoss[seed]
		check("final_loss", pin, ok, lossTol)
		fallthrough
	default:
		pin, ok := pinnedVirtMs[workload]
		check("virt_ms_per_op", pin, ok, virtTol)
	}
	return notes
}
