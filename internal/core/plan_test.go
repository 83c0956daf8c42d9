package core

import (
	"runtime"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// runCost returns the heap objects and bytes one Run of cfg allocates.
func runCost(t *testing.T, cfg Config) (objects, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestSteadyStateIterationAllocBudget keeps construction out of the
// iteration loop. Everything a run builds — world, workloads, the two
// plans, one instance per rank, each helper lane's thread — is paid
// once, so doubling the iteration count adds nothing: the helper lane's
// proc lives across iterations, and what an iteration uses (requests,
// completions, reader batches, event slots) comes back to a pool. A
// helper thread spawned per iteration shows here as three objects per
// rank-iteration; a graph rebuilt per iteration, as a few hundred. The
// bytes have a budget too: storage that grows with the iterations a run
// has been through, not with what it has in flight — an event queue
// that sizes every bucket time passes through to the largest wave, a
// match table that keeps every tag it has seen — shows here as
// kilobytes per rank-iteration.
func TestSteadyStateIterationAllocBudget(t *testing.T) {
	const ranks, n, budget, byteBudget = 8, 8, 2, 512 // measured: within 0.6 objects and 300 bytes of 0
	spec, _ := models.ByName("cifar10-quick")
	for _, armed := range []bool{false, true} {
		mk := func(iters int) Config {
			cfg := timingConfig(spec, ranks, 64, iters)
			cfg.Design = SCOBR
			if armed {
				// Armed but never tripped: the event lies far past the end.
				cfg.Faults = fault.Schedule{{At: 3600 * sim.Second, Kind: fault.StragglerOff, Rank: 0}}
			}
			return cfg
		}
		runCost(t, mk(n)) // warm the runtime's own pools
		short, shortBytes := runCost(t, mk(n))
		long, longBytes := runCost(t, mk(2*n))
		perRankIter, bytesPerRankIter := (long-short)/(ranks*n), (longBytes-shortBytes)/(ranks*n)
		t.Logf("armed=%v: %.0f objects, %.0f bytes at %d iterations, %.0f, %.0f at %d: %.1f objects, %.0f bytes per rank-iteration",
			armed, short, shortBytes, n, long, longBytes, 2*n, perRankIter, bytesPerRankIter)
		if perRankIter > budget {
			t.Errorf("armed=%v: %.1f objects per rank-iteration in steady state, budget %d: what does an iteration make that it does not give back?",
				armed, perRankIter, budget)
		}
		if bytesPerRankIter > byteBudget {
			t.Errorf("armed=%v: %.0f bytes per rank-iteration in steady state, budget %d: which store grows with history instead of live work?",
				armed, bytesPerRankIter, byteBudget)
		}
	}
}

// TestWholeRunAllocBudget bounds what a run costs to set up, which the
// steady-state budget subtracts away: a 64-rank GoogLeNet SC-OB run of two
// iterations — every layer's broadcast posted up front, so requests,
// graph instances, views and event storage are all at their peak — by
// bytes per rank. At the commit before this test the same run took
// 72 KB and 346 objects per rank, the difference mostly event-queue
// buckets regrown as time moved on and a completion per plan node.
func TestWholeRunAllocBudget(t *testing.T) {
	const ranks, budget = 64, 48 << 10 // measured: 41.6 KB, 147 objects
	spec, _ := models.ByName("googlenet")
	cfg := timingConfig(spec, ranks, 256, 2)
	cfg.Design = SCOB
	cfg.Reduce = coll.Tuned
	runCost(t, cfg) // warm the runtime's own pools
	objects, bytes := runCost(t, cfg)
	t.Logf("%d ranks: %.0f objects, %.0f bytes: %.0f objects, %.0f bytes per rank", ranks, objects, bytes, objects/ranks, bytes/ranks)
	if bytes/ranks > budget {
		t.Errorf("%.0f bytes per rank for a 2-iteration run, budget %d: set-up or event storage has crept up", bytes/ranks, budget)
	}
}

// TestSteadyStateIterationSwitchBudget is the alloc budget's twin for
// the cost this design optimises: goroutine switches. An SC-OBR + HR
// iteration parks each rank a few hundred times — per-layer kernels on
// two lanes, a broadcast wait per parameter layer, chunked reduces —
// and almost all of those resumes must be steps on the event loop. What
// still takes the rank's goroutine is the node whose action may block
// (the data wait, posting the broadcasts, a reduce); the helper lane's
// thread lives across iterations, so its start and end are steps too.
// The counts are exact and repeat, so the budget is too; and an armed
// fault plane that never trips must add nothing: its deadline expiries
// are steps.
func TestSteadyStateIterationSwitchBudget(t *testing.T) {
	const ranks, n, budget = 8, 8, 10 // measured: 9.88 (12.00 with a helper thread spawned per iteration)
	spec, _ := models.ByName("cifar10-quick")
	perRankIter := func(armed bool) float64 {
		var res [2]*Result
		for i, iters := range []int{n, 2 * n} {
			cfg := timingConfig(spec, ranks, 64, iters)
			cfg.Design = SCOBR
			cfg.Reduce = coll.Tuned
			if armed {
				cfg.Faults = fault.Schedule{{At: 3600 * sim.Second, Kind: fault.StragglerOff, Rank: 0}}
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		short, long := res[0].Resumes, res[1].Resumes
		per := float64(long.Switches-short.Switches) / (ranks * n)
		t.Logf("armed=%v: %+v at %d iterations, %+v at %d: %.2f switches per rank-iteration",
			armed, short, n, long, 2*n, per)
		if long.Steps <= long.Switches {
			t.Errorf("armed=%v: %d steps to %d switches: the iteration is not running as steps", armed, long.Steps, long.Switches)
		}
		return per
	}
	free, armed := perRankIter(false), perRankIter(true)
	if free > budget {
		t.Errorf("%.2f goroutine switches per rank-iteration, budget %d: which wait went back to blocking?", free, budget)
	}
	if armed != free {
		t.Errorf("armed-untripped run switches %.2f times per rank-iteration, fault-free %.2f: an untripped deadline must cost a step, not a switch", armed, free)
	}
}

// TestModelParallelPhasesWithinTotal: a pipeline stage's phase spans
// come from the scheduler like every other design's, so per rank they
// are disjoint intervals of the run — their sum cannot exceed it — and
// every stage that has layers accounts compute.
func TestModelParallelPhasesWithinTotal(t *testing.T) {
	tiny, _ := models.ByName("tiny") // 7 layers: five of twelve ranks idle
	for _, tc := range []struct {
		spec   *models.Spec
		gpus   int
		stages int
	}{{models.AlexNet(), 8, 8}, {tiny, 12, 7}} {
		cfg := timingConfig(tc.spec, tc.gpus, 2*tc.gpus, 3)
		cfg.Design = ModelParallel
		cfg.Nodes, cfg.GPUsPerNode = 1, 16
		res, st, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.mpStages) != tc.stages {
			t.Fatalf("%s: %d stages, want %d", tc.spec.Name, len(st.mpStages), tc.stages)
		}
		for rank, ph := range st.phases {
			if ph.Total() > res.TotalTime {
				t.Errorf("%s rank %d: phases sum to %v, the run took %v", tc.spec.Name, rank, ph.Total(), res.TotalTime)
			}
			if staged := rank < tc.stages; (ph.Forward > 0 && ph.Backward > 0 && ph.Update > 0) != staged {
				t.Errorf("%s rank %d: phases %+v, stage = %v", tc.spec.Name, rank, ph, staged)
			}
			if ph.Propagation != 0 || ph.Aggregation != 0 || (ph.DataWait > 0 && rank != 0) {
				t.Errorf("%s rank %d: a pipeline stage broadcasts and reduces nothing and only stage 0 reads data: %+v", tc.spec.Name, rank, ph)
			}
		}
	}
}
