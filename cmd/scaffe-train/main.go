// Command scaffe-train runs one distributed-training configuration on
// the simulated cluster and reports timing, throughput, and the
// per-phase breakdown — the equivalent of launching the original
// S-Caffe under mpirun with a solver prototxt.
//
// Examples:
//
//	scaffe-train -model googlenet -gpus 160 -batch 1280 -design scobr -reduce hr -data imagedata
//	scaffe-train -model alexnet -gpus 16 -nodes 20 -gpus-per-node 2 -design cntk
//	scaffe-train -model cifar10-quick -gpus 4 -real -iters 50
//	scaffe-train -model cifar10-quick -gpus 8 -design scob -faults configs/faults_demo.txt -summary
//	scaffe-train -model tiny -gpus 4 -real -integrity recover -faults sdc.txt
//	scaffe-train -chaos configs/chaos_demo.txt
//	scaffe-train -chaos-seed 7
//	scaffe-train -model googlenet -gpus 160 -batch 1280 -iters 10 -summary -memprofile mem.pb.gz -memprofilerate 512
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// (training or chaos); they observe only.
//
// -solver loads the run's shape from a Caffe-style solver prototxt
// (configs/*.prototxt). The file replaces -model, -gpus, -nodes,
// -gpus-per-node, -batch, -scal, -iters, -design, -reduce, -chain and
// -data, so setting any of them beside it exits 2 naming them; -seed and
// -bucket-bytes override the file, and -real trains the file's net.
//
// Exit codes: 0 success, 1 runtime failure, 2 invalid configuration,
// 3 unrecovered failure (every rank lost to injected faults),
// 4 corruption detected while -integrity detect (observe-only) was set.
//
// The -chaos / -chaos-seed modes run the seeded chaos harness
// (internal/chaos) instead of a single training run: the spec's
// schedule is generated, executed, and machine-verified, and one
// greppable invariant summary line is printed. Exit 0 when every
// invariant holds (a legitimately unrecovered run still passes),
// 1 on any violation, 2 on a bad spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"scaffe"
	"scaffe/internal/chaos"
	"scaffe/internal/prof"
	"scaffe/internal/proto"
)

// Exit codes (documented in the package comment).
const (
	exitFailure     = 1
	exitConfig      = 2
	exitUnrecovered = 3
	exitCorruption  = 4
)

func main() {
	solverFile := flag.String("solver", "", "load the run's shape from a Caffe-style solver prototxt; "+
		"setting "+strings.Join(runShapingFlags, ", ")+" beside it is an error, -seed and -bucket-bytes override it")
	model := flag.String("model", "googlenet", "model: lenet, cifar10-quick, alexnet, caffenet, googlenet, vgg16, nin, tiny")
	gpus := flag.Int("gpus", 16, "number of GPUs (MPI ranks)")
	nodes := flag.Int("nodes", 0, "cluster nodes (0 = auto from -gpus-per-node)")
	perNode := flag.Int("gpus-per-node", 16, "GPUs per node (Cluster-A: 16, Cluster-B: 2)")
	batch := flag.Int("batch", 256, "effective batch size")
	scal := flag.String("scal", "strong", "scaling mode: strong (batch divided across GPUs) or weak (batch per GPU)")
	iters := flag.Int("iters", 20, "training iterations")
	design := flag.String("design", "scobr", "pipeline: scb, scob, scobr, caffe, cntk, ps (or inspur)")
	bucketBytes := flag.Int64("bucket-bytes", 0, "gradient bucket size in bytes for scobr (0 = per-layer reduces; other designs reject it)")
	reduce := flag.String("reduce", "hr", "gradient aggregation: binomial, chain, cc, cb, ccb, hr (or tuned), mv2, openmpi, rsg (or rabenseifner)")
	chain := flag.Int("chain", 8, "chain size for hierarchical reductions")
	source := flag.String("data", "imagedata", "data backend: memory, lmdb, imagedata")
	real := flag.Bool("real", false, "real-compute mode (actual float32 training; small models only)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	traceFile := flag.String("trace", "", "write a Chrome trace (chrome://tracing JSON) of the run to this file")
	gantt := flag.Bool("gantt", false, "print an ASCII timeline of the run")
	summary := flag.Bool("summary", false, "print the per-rank phase totals and compute/communication overlap table")
	faultsFile := flag.String("faults", "", "inject faults from a schedule file (one event per line, e.g. `100ms crash rank=3`)")
	integrity := flag.String("integrity", "off", "silent-corruption plane: off, detect (observe only; exit 4 on corruption), recover (retransmit + micro-rollback)")
	chaosFile := flag.String("chaos", "", "run the seeded chaos harness from a spec file (see configs/chaos_demo.txt) instead of a training run; prints one invariant summary line")
	chaosSeed := flag.Int64("chaos-seed", 0, "run the chaos harness on the default spec with this seed (shorthand for a -chaos file setting only seed)")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()
	if err := checkSolverFlags(flag.CommandLine); err != nil {
		fatalConfig(err)
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	if *chaosFile != "" || *chaosSeed != 0 {
		runChaos(*chaosFile, *chaosSeed, stopProfiles)
		return
	}

	var cfg scaffe.Config
	if *solverFile != "" {
		loaded, err := proto.LoadSolver(*solverFile)
		if err != nil {
			fatalConfig(err)
		}
		cfg = loaded
		cfg.Seed = *seed
	} else {
		spec, err := scaffe.Model(*model)
		if err != nil {
			fatalConfig(err)
		}
		cfg = scaffe.Config{
			Spec:        spec,
			GPUs:        *gpus,
			Nodes:       *nodes,
			GPUsPerNode: *perNode,
			GlobalBatch: *batch,
			Weak:        *scal == "weak",
			Iterations:  *iters,
			Seed:        *seed,
		}
		cfg.ReduceOpts.ChainSize = *chain
		cfg.ReduceOpts.OnGPU = true
		if cfg.Design, err = scaffe.ParseDesign(*design); err != nil {
			fatalConfig(err)
		}
		if cfg.Reduce, err = scaffe.ParseReduceAlgorithm(*reduce); err != nil {
			fatalConfig(err)
		}
		if cfg.Source, err = scaffe.ParseSource(*source); err != nil {
			fatalConfig(err)
		}
	}
	if *bucketBytes != 0 { // a negative size reaches Config validation, which rejects it
		cfg.BucketBytes = *bucketBytes
	}
	if *real {
		builder, err := scaffe.RealNetBuilder(cfg.Spec.Name)
		if err != nil {
			fatalConfig(err)
		}
		ds, err := scaffe.SyntheticDataset(cfg.Spec.Name, 1<<16, *seed)
		if err != nil {
			fatalConfig(err)
		}
		cfg.RealNet = builder
		cfg.Dataset = ds
		cfg.BaseLR = 0.01
		cfg.Momentum = 0.9
	}
	if *faultsFile != "" {
		sched, err := scaffe.LoadFaultSchedule(*faultsFile)
		if err != nil {
			fatalConfig(err)
		}
		cfg.Faults = sched
	}
	mode, err := scaffe.ParseIntegrityMode(*integrity)
	if err != nil {
		fatalConfig(err)
	}
	cfg.Integrity = mode

	var rec *scaffe.Trace
	if *traceFile != "" || *gantt || *summary {
		rec = scaffe.NewTrace()
		cfg.Trace = rec
	}

	var before, after runtime.MemStats // the run's host cost, for -summary
	runtime.ReadMemStats(&before)
	res, err := scaffe.Train(cfg)
	runtime.ReadMemStats(&after)
	if perr := stopProfiles(); perr != nil {
		fatal(perr)
	}
	if err != nil {
		switch {
		case errors.Is(err, scaffe.ErrConfig):
			fatalConfig(err)
		case errors.Is(err, scaffe.ErrUnrecovered):
			fmt.Fprintln(os.Stderr, "scaffe-train:", err)
			os.Exit(exitUnrecovered)
		}
		fatal(err)
	}

	fmt.Printf("model=%s design=%s reduce=%s data=%s\n", res.Model, res.Design, res.ReduceAlg, res.Source)
	fmt.Printf("gpus=%d global-batch=%d local-batch=%d iterations=%d\n",
		res.GPUs, res.GlobalBatch, res.LocalBatch, res.Iterations)
	fmt.Printf("total time:      %v\n", res.TotalTime)
	fmt.Printf("time/iteration:  %v\n", res.TimePerIter())
	fmt.Printf("throughput:      %.1f samples/sec\n", res.SamplesPerSec)
	fmt.Printf("root solver blocked-time breakdown:\n")
	fmt.Printf("  data wait:     %v\n", res.Phases.DataWait)
	fmt.Printf("  propagation:   %v\n", res.Phases.Propagation)
	fmt.Printf("  forward:       %v\n", res.Phases.Forward)
	fmt.Printf("  backward:      %v\n", res.Phases.Backward)
	fmt.Printf("  aggregation:   %v\n", res.Phases.Aggregation)
	fmt.Printf("  update:        %v\n", res.Phases.Update)
	fmt.Printf("link utilization: HCA %.0f%%, PCIe %.0f%%\n",
		res.HCAUtilization*100, res.PCIeUtilization*100)
	if len(res.Losses) > 0 {
		fmt.Printf("loss: first=%.4f last=%.4f\n", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
	if res.Fault != nil {
		fmt.Printf("faults: %v\n", res.Fault)
		for i, rec := range res.Fault.Recoveries {
			if rec.Kind == scaffe.FaultEvict {
				// Evictions are initiated, not detected: no detection
				// latency to report.
				fmt.Printf("  shrink %d: rank %d evicted at %v, world rebuilt in %v; resumed iteration %d on %d members (rolled back: %v)\n",
					i, rec.Rank, rec.FailedAt, rec.RecoveryTime(),
					rec.RestartIter, rec.Survivors, rec.RolledBack)
				continue
			}
			fmt.Printf("  shrink %d: rank %d (%v) failed at %v, detected in %v, recovered in %v; resumed iteration %d on %d survivors (rolled back: %v)\n",
				i, rec.Rank, rec.Kind, rec.FailedAt, rec.DetectionLatency(), rec.RecoveryTime(),
				rec.RestartIter, rec.Survivors, rec.RolledBack)
		}
		for i, j := range res.Fault.Joins {
			fmt.Printf("  grow %d: rank %d announced at %v, admitted in %v after %d attempts (%d requeues); resumed iteration %d on %d members\n",
				i, j.Rank, j.AnnouncedAt, j.AdmissionLatency(), j.Attempts, j.Requeues,
				j.RestartIter, j.WorldSize)
		}
		fmt.Printf("final world size: %d of %d ranks\n", res.Fault.Survivors, res.GPUs)
	}
	if res.Integrity != nil {
		fmt.Printf("integrity: %v\n", res.Integrity)
	}
	if *summary {
		fmt.Println("per-rank summary (communication hidden under compute):")
		fmt.Printf("  %-5s %12s %12s %12s %12s %12s %8s\n",
			"rank", "data", "propagation", "compute", "aggregation", "comm", "overlap")
		for _, row := range rec.Summary() {
			fmt.Printf("  %-5d %12v %12v %12v %12v %12v %7.1f%%\n",
				row.Rank, row.Phases["data"], row.Phases["propagation"], row.Compute,
				row.Phases["aggregation"], row.Comm, row.OverlapPct)
		}
		rs := res.Resumes
		fmt.Printf("kernel resumes: %d goroutine switches, %d inline steps, %d finishes, %d stale wakes\n",
			rs.Switches, rs.Steps, rs.Finishes, rs.StaleWakes)
		fmt.Printf("host cost: %.1f MB allocated in %d objects, %d GC cycles\n",
			float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC)
	}
	if *gantt {
		fmt.Print(rec.Gantt(100))
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *traceFile, rec.Len())
	}
	if ir := res.Integrity; ir != nil && ir.Mode == scaffe.IntegrityDetect &&
		(ir.Detected > 0 || ir.WatchdogTrips > 0) {
		fmt.Fprintln(os.Stderr, "scaffe-train: corruption detected (observe-only mode)")
		os.Exit(exitCorruption)
	}
}

// runChaos executes one seeded chaos spec through the harness's
// verifier and prints the per-run invariant summary line. A run that
// terminates unrecovered is a pass — the invariant is
// finished-or-unrecovered inside the virtual-time ceiling, counters
// consistent with the schedule; only a wedge or a counter mismatch
// fails.
func runChaos(file string, seed int64, stopProfiles func() error) {
	var spec chaos.Spec
	if file != "" {
		text, err := os.ReadFile(file)
		if err != nil {
			fatalConfig(err)
		}
		spec, err = chaos.ParseSpec(string(text))
		if err != nil {
			fatalConfig(err)
		}
		if seed != 0 {
			spec.Seed = seed
		}
	} else {
		spec = chaos.Default(seed)
	}
	r, err := chaos.Verify(spec)
	if perr := stopProfiles(); perr != nil {
		fatal(perr)
	}
	if r != nil {
		fmt.Println(r.Summary())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaffe-train: chaos invariant violated:", err)
		os.Exit(exitFailure)
	}
	fmt.Printf("invariants: pass (outcome=%s, %d scheduled events)\n", r.Outcome, len(r.Schedule))
}

// runShapingFlags are the flags a -solver file replaces.
var runShapingFlags = []string{
	"-model", "-gpus", "-nodes", "-gpus-per-node", "-batch", "-scal",
	"-iters", "-design", "-reduce", "-chain", "-data",
}

// checkSolverFlags returns an error naming every run-shaping flag set
// on fs beside -solver, which the file would otherwise override without
// a word; nil when -solver is unset or none is.
func checkSolverFlags(fs *flag.FlagSet) error {
	if fs.Lookup("solver").Value.String() == "" {
		return nil
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(runShapingFlags, "-"+f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("-solver's file sets the run's shape; drop %s", strings.Join(set, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scaffe-train:", err)
	os.Exit(exitFailure)
}

func fatalConfig(err error) {
	fmt.Fprintln(os.Stderr, "scaffe-train:", err)
	os.Exit(exitConfig)
}
