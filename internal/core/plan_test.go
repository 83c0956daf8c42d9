package core

import (
	"runtime"
	"testing"

	"scaffe/internal/coll"
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

// TestSteadyStateIterationSwitchBudget is the alloc budget's twin for
// the cost this design optimises: goroutine switches. An SC-OBR + HR
// iteration parks each rank a few hundred times — per-layer kernels on
// two lanes, a broadcast wait per parameter layer, chunked reduces —
// and almost all of those resumes must be steps on the event loop. What
// still takes the rank's goroutine is the node whose action may block
// (the data wait, posting the broadcasts, a reduce) and the helper
// lane's start and exit. The counts are exact and repeat, so the budget is
// too; and an armed fault plane that never trips must add nothing:
// its deadline expiries are steps.
func TestSteadyStateIterationSwitchBudget(t *testing.T) {
	const ranks, n, budget = 8, 8, 14 // measured: 12.00
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
