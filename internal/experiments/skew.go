package experiments

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/sim"
)

// Skew quantifies the skew-tolerance argument of Section 5 (and the D1
// deviation note in EXPERIMENTS.md): the paper prefers a binomial
// upper level beyond 64 processes because long chains are sensitive to
// slow processes. We plant one persistent straggler GPU (a chain
// leader) and sweep its slowdown factor, comparing CC-8, CB-8, and
// flat binomial.
func Skew(o Options) (*Table, error) {
	ranks := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < ranks {
		ranks = o.MaxGPUs
	}
	const bytes, straggler = 64 << 20, 8
	t := &Table{
		ID:      "skew",
		Title:   fmt.Sprintf("Straggler sensitivity, %d GPUs, 64 MB reduce (straggler = chain leader, rank 8)", ranks),
		Columns: []string{"Slowdown", "CC-8", "CB-8", "Binomial", "CC degradation", "CB degradation"},
	}
	var ccBase, cbBase sim.Duration
	for _, factor := range []float64{1, 2, 4, 8} {
		var row [3]sim.Duration
		for i, alg := range []coll.Algorithm{coll.ChainChain, coll.ChainBinomial, coll.Binomial} {
			world := clusterA(ranks)
			if ranks > straggler {
				world.Ranks[straggler].Dev.SetSlowdown(factor)
			}
			lat, err := coll.ReduceLatency(world, alg, coll.DefaultOptions(), bytes, 1)
			if err != nil {
				return nil, err
			}
			row[i] = lat
		}
		if factor == 1 {
			ccBase, cbBase = row[0], row[1]
		}
		t.AddRow(fmt.Sprintf("%.0fx", factor),
			row[0].String(), row[1].String(), row[2].String(),
			fmt.Sprintf("%.2fx", float64(row[0])/float64(ccBase)),
			fmt.Sprintf("%.2fx", float64(row[1])/float64(cbBase)))
	}
	t.Note("Extension quantifying Section 5's skew-tolerance argument: every chunk of the upper chain passes through the straggler's reduce kernel, so CC degrades faster than CB as the straggler slows — the effect that made the paper's tuned table prefer CB beyond 64 processes on real (noisy) hardware.")
	return t, nil
}
