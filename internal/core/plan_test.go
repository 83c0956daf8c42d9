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
// Both counters are cumulative, so no collection is forced around the
// run: a forced GC only adds its own noise to the reading.
func runCost(t *testing.T, cfg Config) (objects, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestSteadyStateIterationAllocBudget keeps construction out of the
// iteration loop, for every design on every reducer: it is the
// repository's allocation gate for the iteration. Everything a run
// builds — world, workloads, the plans, one instance per rank, each
// helper lane's thread, each reducer's scratch — is paid once, so
// doubling the iteration count adds nothing: the helper lane's proc
// lives across iterations, and what an iteration uses (requests,
// completions, reader batches, event slots, reduce scratch) comes back
// to a pool. A helper thread spawned per iteration shows here as six to
// eight objects per rank-iteration; one make per reduce call, as one or
// more; a graph instance bound anew per iteration, as two to thirteen
// (DESIGN.md §10 has the mutation audit). The bytes have a budget
// too: storage that grows with the iterations a run has been through,
// not with what it has in flight — an event queue that sizes every
// bucket time passes through to the largest wave, a match table that
// keeps every tag it has seen — shows here as kilobytes per
// rank-iteration.
//
// The rows come from the Design and coll.Algorithm enums, so a new
// design or reducer is measured without editing this test: every
// design that aggregates through cfg.Reduce runs every reducer
// fault-free, with a fault plane armed but never tripped, and with the
// integrity plane recovering; every other design runs once; and every
// design real-compute mode accepts runs the tiny net.
func TestSteadyStateIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		// Instrumented, the noise reaches 0.26 objects per rank-iteration
		// and the table takes 18 s on two cores.
		t.Skip("race instrumentation perturbs the counts; scripts/check.sh runs this gate un-instrumented")
	}
	// n is large enough that the runtime's own noise stays under a
	// quarter of an object per rank-iteration (measured: every row
	// within 0.15 objects and 61 bytes of 0).
	const n, budget, byteBudget = 16, 0.5, 512
	spec, _ := models.ByName("cifar10-quick")
	type row struct {
		name  string
		ranks int
		mk    func(iters int) Config
	}
	var rows []row
	for d := Design(0); d.String() != "unknown"; d++ {
		switch d {
		case SCB, SCOB, SCOBR, SCOBRF:
			for a := coll.Algorithm(0); a.String() != "unknown"; a++ {
				for _, plane := range []string{"fault-free", "armed", "integrity"} {
					rows = append(rows, row{d.String() + "/" + a.String() + "/" + plane, 8, func(iters int) Config {
						cfg := timingConfig(spec, 8, 64, iters)
						cfg.Nodes, cfg.GPUsPerNode = 2, 4 // two levels for the hierarchical reducers
						cfg.Design, cfg.Reduce = d, a
						switch plane {
						case "armed":
							// Armed but never tripped: the event lies far past the end.
							cfg.Faults = fault.Schedule{{At: 3600 * sim.Second, Kind: fault.StragglerOff, Rank: 0}}
						case "integrity":
							cfg.Integrity = IntegrityRecover
						}
						return cfg
					}})
				}
			}
		default:
			rows = append(rows, row{d.String(), 8, func(iters int) Config {
				cfg := timingConfig(spec, 8, 0, iters)
				cfg.Design = d
				cfg.GlobalBatch = 8 * cfg.workers() // divisible, whoever trains
				return cfg
			}})
		}
	}
	for d := Design(0); d.String() != "unknown"; d++ {
		cfg := tinyRealConfig(4, 16, 1)
		cfg.Design = d
		if cfg.validateAndDefault() != nil {
			continue // a timing-only design
		}
		rows = append(rows, row{"real/" + d.String(), 4, func(iters int) Config {
			cfg := tinyRealConfig(4, 16, iters)
			cfg.Design = d
			return cfg
		}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			runCost(t, r.mk(n)) // warm the runtime's own pools
			short, shortBytes := runCost(t, r.mk(n))
			long, longBytes := runCost(t, r.mk(2*n))
			ri := float64(r.ranks * n)
			perRankIter, bytesPerRankIter := (long-short)/ri, (longBytes-shortBytes)/ri
			t.Logf("%.0f objects, %.0f bytes at %d iterations, %.0f, %.0f at %d: %.2f objects, %.0f bytes per rank-iteration",
				short, shortBytes, n, long, longBytes, 2*n, perRankIter, bytesPerRankIter)
			if perRankIter > budget {
				t.Errorf("%.2f objects per rank-iteration in steady state, budget %g: what does an iteration make that it does not give back?",
					perRankIter, budget)
			}
			if bytesPerRankIter > byteBudget {
				t.Errorf("%.0f bytes per rank-iteration in steady state, budget %d: which store grows with history instead of live work?",
					bytesPerRankIter, byteBudget)
			}
		})
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
