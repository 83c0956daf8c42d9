package core

import (
	"runtime"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// runMallocs returns the heap objects one Run of cfg allocates.
func runMallocs(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateIterationAllocBudget keeps graph construction out of
// the iteration loop. Everything a run builds — world, workloads, the
// two plans, one instance per rank — is paid once, so doubling the
// iteration count may add only the loop's own small per-iteration
// objects (a helper-lane thread and its closure, reader batches). A run
// that rebuilt a rank's graph every iteration, as the fault-armed loop
// did, adds a few hundred objects per rank-iteration and fails this by
// an order of magnitude.
func TestSteadyStateIterationAllocBudget(t *testing.T) {
	const ranks, n, budget = 8, 8, 25
	spec, _ := models.ByName("cifar10-quick")
	for _, armed := range []bool{false, true} {
		mk := func(iters int) Config {
			cfg := timingConfig(spec, ranks, 64, iters)
			cfg.Design = SCOBR
			cfg.SimParallel = 1
			if armed {
				// Armed but never tripped: the event lies far past the end.
				cfg.Faults = fault.Schedule{{At: 3600 * sim.Second, Kind: fault.StragglerOff, Rank: 0}}
			}
			return cfg
		}
		runMallocs(t, mk(n)) // warm the runtime's own pools
		short, long := runMallocs(t, mk(n)), runMallocs(t, mk(2*n))
		perRankIter := (float64(long) - float64(short)) / (ranks * n)
		t.Logf("armed=%v: %d objects at %d iterations, %d at %d: %.1f per rank-iteration",
			armed, short, n, long, 2*n, perRankIter)
		if perRankIter > budget {
			t.Errorf("armed=%v: %.1f objects per rank-iteration in steady state, budget %d: is the graph rebuilt per iteration?",
				armed, perRankIter, budget)
		}
	}
}
