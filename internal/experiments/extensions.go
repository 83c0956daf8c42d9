package experiments

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// This file holds the extension experiments beyond the paper's
// figures: the weak-scaling mode its Section 6.2 mentions (-scal
// weak), the three-level reduce of its future-work paragraph, and a
// retrospective comparison against the ring allreduce that later
// frameworks standardized on.

// WeakScaling exercises the paper's `-scal weak` option: the per-GPU
// batch stays constant, so ideal scaling keeps time/iteration flat
// while aggregate throughput grows linearly.
func WeakScaling(o Options) (*Table, error) {
	spec := models.GoogLeNet()
	iters := o.iters(10)
	gpus := o.cap([]int{16, 32, 64, 128, 160})
	t := &Table{
		ID:      "weakscaling",
		Title:   "GoogLeNet weak scaling (batch 16 per GPU), Cluster-A",
		Columns: []string{"GPUs", "time/iter", "SPS", "efficiency vs 16", "HCA util"},
	}
	var base float64
	for _, g := range gpus {
		cfg := scaffeConfig(spec, g, 16, iters)
		cfg.Weak = true
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("weakscaling @%d: %w", g, err)
		}
		perGPU := res.SamplesPerSec / float64(g)
		if g == gpus[0] {
			base = perGPU
		}
		t.AddRow(fmt.Sprint(g), res.TimePerIter().String(),
			fmt.Sprintf("%.0f", res.SamplesPerSec),
			fmt.Sprintf("%.0f%%", perGPU/base*100),
			fmt.Sprintf("%.0f%%", res.HCAUtilization*100))
	}
	t.Note("Extension (paper Section 6.2 mentions -scal weak but omits the plots): constant per-GPU batch; efficiency is per-GPU throughput relative to the smallest run.")
	return t, nil
}

// ThreeLevelReduce evaluates the paper's future-work design: CCB
// (chain-of-chain + top binomial) against CC and CB across scales.
func ThreeLevelReduce(o Options) (*Table, error) {
	maxRanks := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < maxRanks {
		maxRanks = o.MaxGPUs
	}
	t := &Table{
		ID:      "threelevel",
		Title:   "Future-work three-level reduce: CCB vs CC vs CB (64 MB)",
		Columns: []string{"Ranks", "CC-8", "CB-8", "CCB-8"},
	}
	for _, ranks := range rankSweep([]int{32, 64, 128, 160}, maxRanks) {
		row := []string{fmt.Sprint(ranks)}
		for _, alg := range []coll.Algorithm{coll.ChainChain, coll.ChainBinomial, coll.ChainChainBinomial} {
			lat, err := reduceLatency(ranks, 64<<20, alg, coll.DefaultOptions())
			if err != nil {
				return nil, err
			}
			row = append(row, lat.String())
		}
		t.AddRow(row...)
	}
	t.Note("Extension (paper Section 5, closing paragraph): the third level keeps the top fan-in logarithmic for very large scales.")
	return t, nil
}

// AllreduceRetrospective compares the paper's synchronization step
// (HR reduce to root + broadcast) against the bandwidth-optimal ring
// allreduce that NCCL/Horovod later standardized — the retrospective
// the novelty assessment of this reproduction calls for.
func AllreduceRetrospective(o Options) (*Table, error) {
	maxRanks := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < maxRanks {
		maxRanks = o.MaxGPUs
	}
	t := &Table{
		ID:      "allreduce",
		Title:   "Parameter synchronization: HR reduce+bcast vs ring allreduce (64 MB)",
		Columns: []string{"Ranks", "HR reduce + bcast", "Ring allreduce", "Ring advantage"},
	}
	for _, ranks := range rankSweep([]int{8, 32, 64, 160}, maxRanks) {
		hr, err := syncLatency(ranks, 64<<20, false)
		if err != nil {
			return nil, err
		}
		ring, err := syncLatency(ranks, 64<<20, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(ranks), hr.String(), ring.String(),
			fmt.Sprintf("%.2fx", float64(hr)/float64(ring)))
	}
	t.Note("Extension: S-Caffe's reduction-tree + root broadcast moves 2b per round-trip through the root; the ring moves 2b(P−1)/P per rank with no root bottleneck — the design that superseded this paper's approach.")
	return t, nil
}

// Bucketing sweeps SC-OBR's aggregation granularity from the paper's
// strict per-layer reduces to whole-model fusion — the trade-off that
// later frameworks resolved with fixed-size gradient buckets.
func Bucketing(o Options) (*Table, error) {
	gpus := 160
	if o.MaxGPUs > 0 && o.MaxGPUs < gpus {
		gpus = o.MaxGPUs
	}
	spec := models.GoogLeNet()
	iters := o.iters(5)
	t := &Table{
		ID:      "bucketing",
		Title:   fmt.Sprintf("SC-OBR gradient-fusion granularity, GoogLeNet, %d GPUs", gpus),
		Columns: []string{"Bucket size", "time/iter", "aggregation", "backward"},
	}
	for _, bucket := range []struct {
		label string
		bytes int64
	}{
		{"per-layer (paper)", 0},
		{"1 MB", 1 << 20},
		{"4 MB", 4 << 20},
		{"16 MB", 16 << 20},
		{"whole model", 1 << 40},
	} {
		cfg := scaffeConfig(spec, gpus, 8*gpus, iters)
		cfg.Source = core.MemorySource
		cfg.BucketBytes = bucket.bytes
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bucketing %s: %w", bucket.label, err)
		}
		t.AddRow(bucket.label, res.TimePerIter().String(),
			res.Phases.Aggregation.String(), res.Phases.Backward.String())
	}
	t.Note("Extension: per-layer reduces (the paper's design) pay a per-collective latency on every small layer; megabyte buckets amortize it; whole-model fusion forfeits the backward overlap — the U-shape behind later frameworks' fixed bucket sizes.")
	return t, nil
}

// rankSweep caps a sweep at max, appending max itself if the sweep
// would otherwise skip it, without duplicates.
func rankSweep(sweep []int, max int) []int {
	var out []int
	for _, r := range sweep {
		if r <= max {
			out = append(out, r)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// syncLatency measures one full parameter-synchronization step.
func syncLatency(ranks int, bytes int64, ring bool) (sim.Duration, error) {
	return coll.AllreduceLatency(clusterA(ranks), bytes, ring)
}
