package coll

import (
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Third-round coverage: selector edges, option handling, and timing
// sanity not asserted elsewhere.

func TestNewReducerDefaultsChainSize(t *testing.T) {
	w := newWorld(t, 4, 4, 16)
	c := w.WorldComm()
	red := NewReducer(c, ChainBinomial, Options{OnGPU: true}) // zero chain size
	if red.Name() != "CB-8" {
		t.Errorf("zero chain size should default to 8, got %s", red.Name())
	}
}

func TestNewReducerUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm should panic")
		}
	}()
	w := newWorld(t, 1, 4, 4)
	NewReducer(w.WorldComm(), Algorithm(99), DefaultOptions())
}

func TestTunedOnSmallCommHasNoHierarchy(t *testing.T) {
	// A communicator no larger than the chain size cannot build
	// two-level designs; Tuned must still work.
	w := newWorld(t, 2, 4, 8)
	tr := newTuned(w.WorldComm(), DefaultOptions())
	if tr.cc != nil || tr.cb != nil {
		t.Error("8-rank tuned reducer should not build hierarchical variants")
	}
	got, _ := runReduce(t, Tuned, DefaultOptions(), 8, 1<<20)
	expectSum(t, got, 8)
}

func TestHostReduceBWOption(t *testing.T) {
	// A higher host-reduce bandwidth must shorten a CPU-arithmetic
	// reduction.
	run := func(bw float64) sim.Time {
		w := newWorld(t, 2, 4, 8)
		c := w.WorldComm()
		o := Options{ChainSize: 8, OnGPU: false, HostReduceBW: bw, Mode: topology.ModeHost}
		plan := reducePlan(NewReducer(c, Binomial, o), nil)
		end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
			return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{gpu.NewBuffer(64 << 20)}, tag: 10}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	slow := run(0)    // cluster default (6 GB/s)
	fast := run(40e9) // multithreaded
	if fast >= slow {
		t.Errorf("40GB/s host reduce (%v) should beat the 6GB/s default (%v)", fast, slow)
	}
}

func TestSingleRankReducesAreFree(t *testing.T) {
	for _, alg := range []Algorithm{Binomial, Chain, Tuned, MV2Baseline, OpenMPIBaseline, Rabenseifner} {
		w := newWorld(t, 1, 4, 1)
		c := w.WorldComm()
		plan := reducePlan(NewReducer(c, alg, DefaultOptions()), nil)
		end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
			buf := gpu.NewDataBuffer(16)
			buf.Fill(3)
			return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 10, ended: func(int) {
				if buf.Data[0] != 3 {
					t.Errorf("%v: single-rank reduce modified the buffer", alg)
				}
			}}
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if end != 0 {
			t.Errorf("%v: single-rank reduce cost %v", alg, end)
		}
	}
}

func TestChainBinomialLocalityAlignment(t *testing.T) {
	// With block placement and chain size == GPUs per node, the lower
	// chains are entirely node-local (the Section 5 locality
	// argument): the HCAs should only carry the leader phase.
	const ranks = 16
	k := sim.New()
	cl := topology.New(k, "t", 4, 4, topology.DefaultParams())
	w := mpi.NewWorld(cl, ranks)
	c := w.WorldComm()
	o := DefaultOptions()
	o.ChainSize = 4 // == GPUs per node
	plan := reducePlan(NewReducer(c, ChainBinomial, o), nil)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{gpu.NewBuffer(8 << 20)}, tag: 10}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The leaders binomial moves 2 buffer-transfers over HCAs per
	// round; intra-node chains must not have touched them at all
	// beyond that. Leaders are ranks 0,4,8,12 (one per node), binomial
	// does 3 inter-node transfers of 8MB: HCA out traffic across the
	// cluster ~ 3 transfers * ~0.84ms. Assert it is far below what
	// chains-over-IB would have produced (12 inter-node hops).
	var hcaBusy sim.Duration
	for _, n := range cl.Nodes {
		hcaBusy += n.HCA.BusyTotal()
	}
	// 3 inter-node transfers, each reserving HCA.Out (src) and HCA.In
	// (dst) for ~0.84ms → ~5ms total; a non-locality-aligned layout
	// would at least triple that.
	if hcaBusy > 8*sim.Millisecond {
		t.Errorf("HCAs busy %v; chains should have stayed node-local", hcaBusy)
	}
	if hcaBusy == 0 {
		t.Error("leader phase should have crossed nodes")
	}
}
