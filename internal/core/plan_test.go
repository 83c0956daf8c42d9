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
// design real-compute mode accepts runs the tiny net. SC-OBR runs all of
// that a second time at FireCaffe's 4 MiB gradient buckets, under the
// label "SC-OBR-F" its rows had while the bucketed configuration was a
// design of its own.
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
	const fused = 4 << 20 // the "SC-OBR-F" rows' bucket size
	var rows []row
	reducing := func(name string, d Design, bucket int64) {
		for a := coll.Algorithm(0); a.String() != "unknown"; a++ {
			for _, plane := range []string{"fault-free", "armed", "integrity"} {
				rows = append(rows, row{name + "/" + a.String() + "/" + plane, 8, func(iters int) Config {
					cfg := timingConfig(spec, 8, 64, iters)
					cfg.Nodes, cfg.GPUsPerNode = 2, 4 // two levels for the hierarchical reducers
					cfg.Design, cfg.Reduce, cfg.BucketBytes = d, a, bucket
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
	}
	for d := Design(0); d.String() != "unknown"; d++ {
		switch d {
		case SCB, SCOB, SCOBR:
			reducing(d.String(), d, 0)
		default:
			rows = append(rows, row{d.String(), 8, func(iters int) Config {
				cfg := timingConfig(spec, 8, 0, iters)
				cfg.Design = d
				cfg.GlobalBatch = 8 * cfg.workers() // divisible, whoever trains
				return cfg
			}})
		}
	}
	reducing("SC-OBR-F", SCOBR, fused)
	realRow := func(name string, d Design, bucket int64) {
		cfg := tinyRealConfig(4, 16, 1)
		cfg.Design, cfg.BucketBytes = d, bucket
		if cfg.validateAndDefault() != nil {
			return // a timing-only design
		}
		rows = append(rows, row{"real/" + name, 4, func(iters int) Config {
			cfg := tinyRealConfig(4, 16, iters)
			cfg.Design, cfg.BucketBytes = d, bucket
			return cfg
		}})
	}
	for d := Design(0); d.String() != "unknown"; d++ {
		realRow(d.String(), d, 0)
	}
	realRow("SC-OBR-F", SCOBR, fused)
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
// bytes and objects per rank. At the commit before this test the same
// run took 72 KB and 346 objects per rank, the difference mostly
// event-queue buckets regrown as time moved on and a completion per plan
// node. Building the world in blocks (carved ranks, devices, links,
// procs and MPI records, names cut from one string) took the objects
// from 132 to 90 per rank. One payload-free layout for the whole run,
// reducer views and scratch shared by size, a broadcast's per-rank
// records in one slice and sub-walks carved with their walks took them
// to 67 and the bytes from 38.7 KB to 26.4 KB. A 72-byte completion in
// a 104-byte request, with requests and unexpected sends carved from
// the world's blocks rather than each rank's, took them from 39 objects
// and 27.0 KB to 31 and 23.4 KB. A broadcast op of one request pointer
// per rank and one shared payload-free buffer, and a request slot per
// parameter layer rather than per layer, took the bytes to 21.2 KB; a
// 96-byte request in blocks that stay inside their size class, to 20.5
// KB. A data reader holding its queue as a count of tokens by value, with
// its waiters inline, and a run's readers made as one block took the
// objects from 31 to 27. Both budgets are that plus about 10 %.
func TestWholeRunAllocBudget(t *testing.T) {
	const ranks, budget, objBudget = 64, 22500, 30 // measured: 20,487 bytes, 27 objects
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
	if objects/ranks > objBudget {
		t.Errorf("%.0f objects per rank for a 2-iteration run, budget %d: something is made one per rank again", objects/ranks, objBudget)
	}
}

// TestSteadyStateIterationSwitchBudget is the alloc budget's twin for
// the cost this design optimises: goroutine switches, for every design.
// An iteration resumes each rank dozens to hundreds of times — per-layer
// kernels, broadcast waits, every reduction's receives, kernels and
// forwards, the data queue, a pipeline's boundary transfers, a server's
// sends and receives — and its data reader and helper lanes besides, and
// none of them has a goroutine: every one of those resumes is a step on
// the event loop, and the budget is no switch at all. The counts are
// exact and repeat, so the budget is too; and an armed fault plane that
// never trips must add nothing: its deadline expiries are steps. (Fault
// injection is validated for the MPI data-parallel designs only, so
// Caffe and PS run fault-free alone.) SC-OBR runs a second time at 4 MiB
// gradient buckets, as the alloc budget's "SC-OBR-F" rows do.
//
// Per rank-iteration, when the data wait, SC-B's broadcast, CNTK-like's
// host exchange and PS's sends and receives were each a blocking action
// on the lane's goroutine; when only the data readers and each lane 0's
// end were left on goroutines; and now:
//
//	SC-OB, SC-OBR, SC-OBR-F   3.00 → 2.00 → 0
//	SC-B                      3.88 → 2.00 → 0
//	Caffe                     3.88 → 1.12 → 0
//	PS                        6.25 → 1.88 → 0
//	CNTK-like                 7.00 → 2.00 → 0
func TestSteadyStateIterationSwitchBudget(t *testing.T) {
	const ranks, n, budget = 8, 8, 0
	spec, _ := models.ByName("cifar10-quick")
	for _, row := range []struct {
		name   string
		design Design
		bucket int64
		batch  int
		armed  bool // fault injection validates for this design
	}{
		{"SC-B", SCB, 0, 64, true}, {"SC-OB", SCOB, 0, 64, true}, {"SC-OBR", SCOBR, 0, 64, true},
		{"SC-OBR-F", SCOBR, 4 << 20, 64, true}, {"Caffe", CaffeMT, 0, 64, false},
		{"CNTK-like", CNTKLike, 0, 64, true}, {"ParamServer", ParamServer, 0, 56, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			perRankIter := func(armed bool) float64 {
				var res [2]*Result
				for i, iters := range []int{n, 2 * n} {
					cfg := timingConfig(spec, ranks, row.batch, iters)
					cfg.Design, cfg.BucketBytes = row.design, row.bucket
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
			free := perRankIter(false)
			if free > budget {
				t.Errorf("%.2f goroutine switches per rank-iteration, budget %d: which wait went back to blocking?", free, budget)
			}
			if !row.armed {
				return
			}
			if armed := perRankIter(true); armed != free {
				t.Errorf("armed-untripped run switches %.2f times per rank-iteration, fault-free %.2f: an untripped deadline must cost a step, not a switch", armed, free)
			}
		})
	}
}
