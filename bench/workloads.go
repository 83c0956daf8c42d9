package main

import (
	"fmt"
	"math"
	"time"

	"scaffe"
	"scaffe/internal/chaos"
	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/fault"
	"scaffe/internal/sim"
)

// workload is one closed-loop, one-client workload: a fixed amount of
// work per repetition, started again only when the previous one has
// returned.
type workload interface {
	// setup makes the workload's inputs from the seed and runs its
	// single-worker baseline. The seed is the only source of randomness;
	// the system under test receives only what setup generates.
	setup(seed int64, smoke bool) error
	// rep runs one repetition and checks its outputs. Every rep of a run
	// does the same work on the same inputs. A non-nil sp marks a traced
	// rep: calls into the system are wrapped in spans and the run's own
	// virtual-time recorder is attached.
	rep(sp *spans) repResult
	// rankIters is the number of (rank, iteration) units of simulated
	// work in one rep, the divisor of core.wall_us_per_rank_iter.
	rankIters() float64
	// ladder measures this workload's per-layer rungs into lc.
	ladder(lc *ladderCtx)
}

// repResult is what one repetition reports back to the runner.
type repResult struct {
	ops    int      // training iterations, grid points or chaos specs attempted
	failed int      // ops whose output check failed
	notes  []string // one line per failure
	info   []string // lines for the reader that are not failures

	// digest holds every virtual output the rep produced: all reps of a
	// run must have equal digests (determinism is this system's signature
	// property).
	digest string

	// virt holds the workload's virtual end-to-end metrics by name.
	virt map[string]float64

	// The virtual phase account of the rep, for the per-layer metrics.
	phases    scaffe.Phases
	totalTime sim.Time
	hca, pcie float64

	// specs holds a chaos rep's per-spec costs and outcomes.
	specs []chaosSpecResult
}

func (r *repResult) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ---- Train-based workloads ------------------------------------------------

// trainWorkload is one scaffe.Train configuration plus its 1-GPU
// baseline: the same design, source and per-GPU batch on a single worker.
type trainWorkload struct {
	name  string
	build func(seed int64, smoke bool) (scaffe.Config, error)
	rungs func(lc *ladderCtx, w *trainWorkload) // the workload's ladder

	cfg  scaffe.Config
	base *scaffe.Result
}

func (w *trainWorkload) setup(seed int64, smoke bool) error {
	cfg, err := w.build(seed, smoke)
	if err != nil {
		return err
	}
	w.cfg = cfg
	one := cfg
	one.GPUs, one.Nodes, one.GPUsPerNode = 1, 1, 1
	one.GlobalBatch = cfg.GlobalBatch / cfg.GPUs
	w.base, err = scaffe.Train(one)
	if err != nil {
		return fmt.Errorf("%s: 1-GPU baseline: %w", w.name, err)
	}
	return nil
}

func (w *trainWorkload) rankIters() float64 { return float64(w.cfg.GPUs * w.cfg.Iterations) }

func (w *trainWorkload) rep(sp *spans) repResult {
	return w.run(w.cfg, sp)
}

// run trains cfg once and checks the result.
func (w *trainWorkload) run(cfg scaffe.Config, sp *spans) repResult {
	out := repResult{ops: cfg.Iterations}
	if sp != nil {
		cfg.Trace = scaffe.NewTrace()
	}
	var res *scaffe.Result
	var err error
	sp.do("core.Train", func() { res, err = scaffe.Train(cfg) })
	if err != nil {
		out.fail(out.ops, "%s: Train: %v", w.name, err)
		return out
	}
	if res.Iterations < cfg.Iterations {
		out.fail(cfg.Iterations-res.Iterations, "%s: %d of %d iterations ran", w.name, res.Iterations, cfg.Iterations)
	}
	out.virt = map[string]float64{
		"virt_ms_per_op":   res.TimePerIter().Milliseconds(),
		"virt_scaling_eff": res.SamplesPerSec / (float64(cfg.GPUs) * w.base.SamplesPerSec),
	}
	if cfg.RealNet != nil {
		// A few iterations from a random start sit on the ln(10)
		// plateau, where the per-minibatch loss rises as often as it
		// falls; what can be checked is that training produced one
		// finite, sane loss per iteration.
		if len(res.Losses) != cfg.Iterations {
			out.fail(1, "%s: %d losses for %d iterations", w.name, len(res.Losses), cfg.Iterations)
		}
		for it, l := range res.Losses {
			if f := float64(l); math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 || f > 2*math.Log(10) {
				out.fail(1, "%s: iteration %d loss %v outside (0, 2 ln 10]", w.name, it, l)
			}
		}
		if n := len(res.Losses); n > 0 {
			out.virt["final_loss"] = float64(res.Losses[n-1])
		}
	}
	out.digest = fmt.Sprint(res.TotalTime, res.Phases, res.SamplesPerSec, res.Losses, res.HCAUtilization, res.PCIeUtilization)
	out.phases, out.totalTime = res.Phases, res.TotalTime
	out.hca, out.pcie = res.HCAUtilization, res.PCIeUtilization
	return out
}

func newTrainGoogLeNet160() *trainWorkload {
	return &trainWorkload{name: "train-googlenet-160", rungs: (*ladderCtx).trainLadder, build: func(seed int64, smoke bool) (scaffe.Config, error) {
		cfg := scaffe.Config{
			Spec: scaffe.MustModel("googlenet"),
			GPUs: 160, Nodes: 12, GPUsPerNode: 16, GlobalBatch: 1280, Iterations: 10,
			Design: scaffe.SCOBR, Reduce: scaffe.ReduceHR, Source: scaffe.ImageData, Seed: seed,
		}
		if smoke {
			cfg.GPUs, cfg.Nodes, cfg.GPUsPerNode, cfg.GlobalBatch, cfg.Iterations = 8, 2, 4, 64, 1
		}
		return cfg, nil
	}}
}

func newScaleGoogLeNet1024() *trainWorkload {
	return &trainWorkload{name: "scale-googlenet-1024", rungs: (*ladderCtx).scaleLadder, build: func(seed int64, smoke bool) (scaffe.Config, error) {
		cfg := scaffe.Config{
			Spec: scaffe.MustModel("googlenet"),
			GPUs: 1024, Nodes: 64, GPUsPerNode: 16, GlobalBatch: 4096, Iterations: 2,
			Design: scaffe.SCOB, Reduce: scaffe.ReduceHR, Source: scaffe.InMemory, Seed: seed,
		}
		if smoke {
			cfg.GPUs, cfg.Nodes, cfg.GPUsPerNode, cfg.GlobalBatch, cfg.Iterations = 8, 2, 4, 32, 1
		}
		return cfg, nil
	}}
}

func newRealCIFAR4() *trainWorkload {
	return &trainWorkload{name: "real-cifar10-4", rungs: (*ladderCtx).realLadder, build: func(seed int64, smoke bool) (scaffe.Config, error) {
		const model = "cifar10-quick"
		net, err := scaffe.RealNetBuilder(model)
		if err != nil {
			return scaffe.Config{}, err
		}
		ds, err := scaffe.SyntheticDataset(model, 1024, seed)
		if err != nil {
			return scaffe.Config{}, err
		}
		cfg := scaffe.Config{
			Spec: scaffe.MustModel(model), RealNet: net, Dataset: ds,
			GPUs: 4, GlobalBatch: 64, Iterations: 2,
			Design: scaffe.SCOBR, Reduce: scaffe.ReduceHR, Source: scaffe.InMemory, Seed: seed,
		}
		if smoke {
			cfg.GlobalBatch, cfg.Iterations = 8, 1
		}
		return cfg, nil
	}}
}

// ---- reduce-osu-160 -------------------------------------------------------

type reducePoint struct {
	alg   scaffe.ReduceAlgorithm
	name  string
	bytes int64
}

// reduceWorkload is the OSU-style grid: one scaffe.ReduceBench per
// (algorithm, message size) point. It takes no random input; the seed
// changes nothing here.
type reduceWorkload struct {
	ranks, trials int
	grid          []reducePoint
	largest       int64

	// last is the most recent rep's latency per grid point, for the
	// ladder's regret figure.
	last map[reducePoint]sim.Duration
}

var reduceGridAlgs = []struct {
	alg  scaffe.ReduceAlgorithm
	name string
}{
	{scaffe.ReduceHR, "hr"}, {scaffe.ReduceCC, "cc"}, {scaffe.ReduceCB, "cb"}, {scaffe.ReduceBinomial, "binomial"},
	{scaffe.ReduceRabenseifner, "rsg"}, {scaffe.ReduceMV2, "mv2"}, {scaffe.ReduceOpenMPI, "openmpi"},
}

var reduceGridSizes = []int64{4 << 10, 1 << 20, 64 << 20, 256 << 20}

func newReduceOSU160() *reduceWorkload { return &reduceWorkload{} }

func (w *reduceWorkload) setup(seed int64, smoke bool) error {
	w.ranks, w.trials = 160, 5
	sizes := reduceGridSizes
	if smoke {
		w.ranks, w.trials, sizes = 8, 1, []int64{1 << 20}
	}
	w.grid = nil
	for _, a := range reduceGridAlgs {
		for _, b := range sizes {
			w.grid = append(w.grid, reducePoint{a.alg, a.name, b})
		}
	}
	w.largest = sizes[len(sizes)-1]
	return nil
}

// rankIters counts every rank's part in every reduction of the grid,
// the untimed warm-up trial of each point included.
func (w *reduceWorkload) rankIters() float64 {
	return float64(w.ranks * len(w.grid) * (w.trials + 1))
}

func (w *reduceWorkload) rep(sp *spans) repResult {
	out := repResult{ops: len(w.grid)}
	w.last = make(map[reducePoint]sim.Duration, len(w.grid))
	var hr, mv2 sim.Duration
	for _, p := range w.grid {
		var d sim.Duration
		var err error
		sp.do(fmt.Sprintf("coll.ReduceBench %s %d", p.name, p.bytes), func() {
			d, err = scaffe.ReduceBench(scaffe.ReduceBenchConfig{Ranks: w.ranks, Bytes: p.bytes, Algorithm: p.alg, Trials: w.trials})
		})
		if err != nil || d <= 0 {
			out.fail(1, "reduce %s %d B: latency %v, error %v", p.name, p.bytes, d, err)
			continue
		}
		w.last[p] = d
		out.digest += fmt.Sprintf("%s/%d=%d ", p.name, p.bytes, int64(d))
		if p.bytes == w.largest {
			switch p.name {
			case "hr":
				hr = d
			case "mv2":
				mv2 = d
			}
		}
	}
	if hr > 0 && mv2 > 0 {
		// The paper's Figure 12 claim: HR beats the MVAPICH2 baseline at
		// the largest message.
		if hr >= mv2 {
			out.fail(1, "HR (%v) is not faster than MV2 (%v) at %d B", hr, mv2, w.largest)
		}
		out.virt = map[string]float64{
			"virt_ms_per_op":         hr.Milliseconds(),
			"virt_hr_speedup_vs_mv2": float64(mv2) / float64(hr),
		}
	}
	return out
}

// ---- chaos-cifar10-32 -----------------------------------------------------

// chaosSpecResult is one verified spec's cost and outcome. It keeps the
// fault report and the virtual time, not the run's Result: that holds the
// final parameters, and every rep of a run is kept, so the live heap would
// grow with every rep and no two reps would start from the same one.
type chaosSpecResult struct {
	seed      int64
	wallMs    float64
	outcome   chaos.Outcome
	fault     *fault.Report
	totalTime sim.Time
}

// chaosWorkload verifies the same batch of seeded fault schedules every
// rep: specs seed..seed+perRep-1.
//
// An unrecovered outcome is an allowed terminal state of a fault
// schedule (injected failures legitimately killed the run) and the driver
// wants workloads on which no op fails, so it is reported by spec seed
// and counted in fault.unrecovered_specs, not as a failed op; a wedged
// run or a counter inconsistency is a failure.
type chaosWorkload struct {
	seed     int64
	template chaos.Spec
	perRep   int

	// base is the fault-free run every spec calibrates against and one is
	// the same configuration on a single rank.
	base, one *core.Result
}

func newChaosCIFAR32() *chaosWorkload { return &chaosWorkload{} }

func (w *chaosWorkload) setup(seed int64, smoke bool) error {
	w.seed, w.perRep = seed, 24
	w.template = chaos.Spec{Ranks: 32, Iterations: 16, Events: 8, Design: core.SCOBR, Reduce: coll.Tuned}
	if smoke {
		w.perRep = 2
		w.template.Ranks, w.template.Iterations, w.template.Events = 8, 4, 4
	}
	var err error
	if w.base, err = core.Run(w.template.Config()); err != nil {
		return fmt.Errorf("chaos: fault-free baseline: %w", err)
	}
	single := w.template
	single.Ranks = 1
	if w.one, err = core.Run(single.Config()); err != nil {
		return fmt.Errorf("chaos: 1-rank baseline: %w", err)
	}
	return nil
}

// rankIters counts both runs of every spec: its fault-free calibration
// and the faulted run.
func (w *chaosWorkload) rankIters() float64 {
	return float64(2 * w.perRep * w.template.Ranks * w.template.Iterations)
}

func (w *chaosWorkload) rep(sp *spans) repResult {
	out := repResult{ops: w.perRep}
	iterations := 0
	for j := 0; j < w.perRep; j++ {
		spec := w.template
		spec.Seed = w.seed + int64(j)
		var r *chaos.RunResult
		var err error
		t := time.Now()
		sp.do(fmt.Sprintf("chaos.Verify seed=%d", spec.Seed), func() { r, err = chaos.Verify(spec) })
		wallMs := float64(time.Since(t)) / float64(time.Millisecond)
		if err != nil || r == nil || r.Outcome == chaos.Wedged {
			out.fail(1, "chaos spec %v: %v", spec, err)
			continue
		}
		one := chaosSpecResult{seed: spec.Seed, wallMs: wallMs, outcome: r.Outcome}
		out.digest += r.Summary() + "\n"
		if r.Outcome == chaos.Finished {
			one.fault, one.totalTime = r.Res.Fault, r.Res.TotalTime
			out.digest += fmt.Sprintln(r.Res.TotalTime, r.Res.Phases)
			out.phases = addPhases(out.phases, r.Res.Phases)
			out.totalTime += r.Res.TotalTime
			iterations += r.Res.Iterations
		}
		out.specs = append(out.specs, one)
	}
	out.hca, out.pcie = w.base.HCAUtilization, w.base.PCIeUtilization
	var lost []int64
	for _, spec := range out.specs {
		if spec.outcome == chaos.Unrecovered {
			lost = append(lost, spec.seed)
		}
	}
	out.info = append(out.info, fmt.Sprintf("unrecovered: %d of %d specs, spec seeds %v (an allowed outcome, not a failed op)", len(lost), w.perRep, lost))
	if iterations == 0 {
		out.fail(1, "chaos: no spec of %d finished", w.perRep)
		return out
	}
	// Virtual time per iteration over the finished specs, faults and
	// recoveries included; it depends on which schedules the seed drew.
	// The scaling figure is that of the fault-free run the schedules are
	// calibrated against.
	out.virt = map[string]float64{
		"virt_ms_per_op":   out.totalTime.Milliseconds() / float64(iterations),
		"virt_scaling_eff": w.base.SamplesPerSec / (float64(w.template.Ranks) * w.one.SamplesPerSec),
	}
	return out
}

func addPhases(a, b scaffe.Phases) scaffe.Phases {
	return scaffe.Phases{
		DataWait:    a.DataWait + b.DataWait,
		Propagation: a.Propagation + b.Propagation,
		Forward:     a.Forward + b.Forward,
		Backward:    a.Backward + b.Backward,
		Aggregation: a.Aggregation + b.Aggregation,
		Update:      a.Update + b.Update,
	}
}
