package experiments

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// reduceLatency measures one OSU-style MPI_Reduce point on Cluster-A
// geometry: barrier, reduce, time to the last rank's completion
// (deterministic, so one warm-up + one timed trial suffice).
func reduceLatency(ranks int, bytes int64, alg coll.Algorithm, opts coll.Options) (sim.Duration, error) {
	return coll.ReduceLatency(clusterA(ranks), alg, opts, bytes, 1)
}

// clusterA is a world of ranks GPUs in Cluster-A geometry: 16 per node.
func clusterA(ranks int) *mpi.World {
	return mpi.NewWorld(topology.New(sim.New(), "omb", (ranks+15)/16, 16, topology.DefaultParams()), ranks)
}

// reduceSizes is the message-size sweep of Figures 11–12 (the paper's
// "extensively large" DL messages: 2 MB up to the 256 MB AlexNet
// gradient buffer).
var reduceSizes = []int64{2 << 20, 8 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20}

// Figure11 regenerates the 160-process reduce comparison across the
// hierarchical design variants.
func Figure11(o Options) (*Table, error) {
	ranks := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < ranks {
		ranks = o.MaxGPUs
	}
	t := &Table{
		ID:      "figure11",
		Title:   fmt.Sprintf("MPI_Reduce latency, %d GPU processes, Cluster-A", ranks),
		Columns: []string{"Size", "MV2", "CC-4", "CC-8", "CB-4", "CB-8", "HR (Tuned)"},
	}
	type variant struct {
		alg  coll.Algorithm
		opts coll.Options
	}
	mk := func(alg coll.Algorithm, chain int) variant {
		o := coll.DefaultOptions()
		o.ChainSize = chain
		return variant{alg, o}
	}
	variants := []variant{
		{coll.MV2Baseline, coll.DefaultOptions()},
		mk(coll.ChainChain, 4),
		mk(coll.ChainChain, 8),
		mk(coll.ChainBinomial, 4),
		mk(coll.ChainBinomial, 8),
		{coll.Tuned, coll.DefaultOptions()},
	}
	var bestTunedWin float64
	for _, size := range reduceSizes {
		row := []string{fmt.Sprintf("%dM", size>>20)}
		var mv2, tuned sim.Duration
		for i, v := range variants {
			lat, err := reduceLatency(ranks, size, v.alg, v.opts)
			if err != nil {
				return nil, fmt.Errorf("figure11 %s@%d: %w", v.alg, size, err)
			}
			row = append(row, lat.String())
			if i == 0 {
				mv2 = lat
			}
			if i == len(variants)-1 {
				tuned = lat
			}
		}
		if win := float64(mv2) / float64(tuned); win > bestTunedWin {
			bestTunedWin = win
		}
		t.AddRow(row...)
	}
	t.Note("Paper: HR (Tuned) picks the fastest CC/CB combination per size and beats MV2 across the sweep; measured best HR-vs-MV2 win %.1fx.", bestTunedWin)
	return t, nil
}

// Figure12 regenerates the headline comparison: the proposed HR
// against the MVAPICH2 and OpenMPI reduce paths (log-scale in the
// paper; we report the raw latencies and the speedups).
func Figure12(o Options) (*Table, error) {
	ranks := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < ranks {
		ranks = o.MaxGPUs
	}
	t := &Table{
		ID:      "figure12",
		Title:   fmt.Sprintf("MPI_Reduce latency, %d GPU processes: proposed HR vs MVAPICH2 vs OpenMPI", ranks),
		Columns: []string{"Size", "HR (proposed)", "MVAPICH2", "OpenMPI", "HR vs MV2", "HR vs OpenMPI"},
	}
	var maxMV2, maxOMPI float64
	for _, size := range reduceSizes {
		hr, err := reduceLatency(ranks, size, coll.Tuned, coll.DefaultOptions())
		if err != nil {
			return nil, err
		}
		mv2, err := reduceLatency(ranks, size, coll.MV2Baseline, coll.DefaultOptions())
		if err != nil {
			return nil, err
		}
		ompi, err := reduceLatency(ranks, size, coll.OpenMPIBaseline, coll.DefaultOptions())
		if err != nil {
			return nil, err
		}
		sMV2 := float64(mv2) / float64(hr)
		sOMPI := float64(ompi) / float64(hr)
		if sMV2 > maxMV2 {
			maxMV2 = sMV2
		}
		if sOMPI > maxOMPI {
			maxOMPI = sOMPI
		}
		t.AddRow(fmt.Sprintf("%dM", size>>20), hr.String(), mv2.String(), ompi.String(),
			fmt.Sprintf("%.1fx", sMV2), fmt.Sprintf("%.1fx", sOMPI))
	}
	t.Note("Paper: HR is almost 3x faster than MVAPICH2 and up to 133x faster than OpenMPI; measured maxima %.1fx and %.1fx.", maxMV2, maxOMPI)
	return t, nil
}
