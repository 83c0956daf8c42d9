package main

import (
	"encoding/json"
	"strings"
)

// This file fixes the benchmark's names: the workloads, the end-to-end
// metrics with their bounds, and the per-layer metrics. BENCHMARK.json at
// the repository root is generated from it (`-manifest`) and a test keeps
// the two equal.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 12

// The units. A virtual quantity carries its own unit so that it is never
// read as host time: virt_ms is simulated milliseconds, which repeat
// exactly from run to run.
const (
	unitSeconds = "s"
	unitVirtMs  = "virt_ms"
	unitVirtUs  = "virt_us"
	unitRatio   = "ratio"
	unitShare   = "share"
	unitFrac    = "frac"
	unitCount   = "count"
)

// notMeasured is the value of an end-to-end metric on a workload that
// does not define it (a reduce grid has no training loss). It is the
// neutral ratio, never 0, and never moves.
const notMeasured = 1.0

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func() workload

	// procs is the GOMAXPROCS the workload runs at; 0 is the host's own.
	// chaos-cifar10-32 runs at 1. Its fault-armed runs use the sequential
	// kernel, so one goroutine is runnable at a time, and its 24 small
	// runs a rep collect garbage some hundred times; on a second P that
	// is hand-offs and collector wake-ups crossing OS threads, whose cost
	// on the shared 2-vCPU reference box wanders with the neighbours. Three
	// interleaved A/A sets gave wall_s spreads of 11.6, 11.4 and 10.3 % at
	// 2 Ps against 5.7, 8.7 and 4.7 % at 1 (and a median a tenth lower),
	// and the driver refused the benchmark over this workload's spread at
	// 2 Ps. The other four were within their bounds as they are and keep
	// the host's: reduce-osu-160 spread 3-4 % at either setting, and the
	// scaffe.Train workloads may arm the parallel kernel, which is part
	// of what they measure.
	procs int
}

var workloads = []workloadDecl{
	{"train-googlenet-160",
		"the paper's headline run: core+sched walk many small layers while mpi, coll, sim and topology work in the paper's own proportions; the fault-free loop",
		func() workload { return newTrainGoogLeNet160() }, 0},
	{"scale-googlenet-1024",
		"rank count dominates, not the model: sim queue depth and proc handoff, per-rank set-up in core/mpi/topology; where the parallel kernel must earn its keep",
		func() workload { return newScaleGoogLeNet1024() }, 0},
	{"reduce-osu-160",
		"coll+mpi+topology do all the work and core/sched none (Figure 11/12 shape); eager small and pipelined large messages both run",
		func() workload { return newReduceOSU160() }, 0},
	{"real-cifar10-4",
		"real float32 training: tensor/layers/solver/data do the work, the event kernel almost none: the bypass for every simulator optimisation; final_loss is gated per seed at 0.1 % by bench/pins.go",
		func() workload { return newRealCIFAR4() }, 0},
	{"chaos-cifar10-32",
		"the only workload on fault, mpi/wire.go, epoch fencing and core's ftLoop/rebuild path, on the sequential kernel at GOMAXPROCS=1; its seed-dependent virt_ms_per_op is gated per seed by bench/pins.go",
		func() workload { return newChaosCIFAR32() }, 1},
}

type e2eDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exact is the bound of a virtual metric that is the same at every seed.
// Such values repeat exactly, so any movement is a change of the simulated
// result; 0.001 rather than 0 keeps a strict "less than the bound"
// comparison from rejecting an unchanged value.
const exact = 0.001

// The driver holds a bound against the spread over ten seeds, so a metric
// whose value depends on the seed on any workload cannot carry a tight
// one: chaos-cifar10-32 draws its fault schedules from the seed, which
// moves its virt_ms_per_op (up to 12 % between sets of ten seeds),
// alloc_mb and allocs (up to 4 %), and real-cifar10-4's final_loss moves
// 3 % with the dataset. All of these repeat exactly on one seed; what
// holds virt_ms_per_op and final_loss to the issue's "exact" and "0.1 %"
// is the per-seed gate in pins.go, which fails the run.
var endToEnd = []e2eDecl{
	{"setup_s", unitSeconds, "lower", 0.25},
	{"wall_s", unitSeconds, "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"allocs", unitCount, "lower", 0.1},
	{"virt_ms_per_op", unitVirtMs, "lower", 0.25},
	{"virt_scaling_eff", unitRatio, "higher", exact},
	{"virt_hr_speedup_vs_mv2", unitRatio, "higher", exact},
	{"final_loss", "loss", "lower", 0.12},
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// profileLayers are the buckets CPU samples are attributed to, by the
// package of the leaf frame. gosched and gogc split package runtime.
var profileLayers = []string{
	"sim", "topology", "mpi", "coll", "sched", "core", "fault", "tensor",
	"layers", "data", "trace", "gosched", "gogc", "other",
}

var phaseNames = []string{"data", "propagation", "forward", "backward", "aggregation", "update"}

// reduceRungAlgs are the nine reducers of the coll ladder, by the suffix
// of their metric names.
var reduceRungAlgs = []string{"binomial", "chain", "cc", "cb", "ccb", "hr", "rsg", "mv2", "openmpi"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerDecl {
	var d []layerDecl
	add := func(name, unit, better string) { d = append(d, layerDecl{name, unit, better}) }

	// On every workload: the traced reps' CPU profile, virtual phase
	// accounting, and process-level counters.
	for _, l := range profileLayers {
		better := "lower"
		if l == "tensor" || l == "layers" {
			better = "higher" // the only layers whose CPU time is the user's arithmetic
		}
		add(l+".cpu_self_share", unitShare, better)
	}
	add("core.wall_us_per_rank_iter", "us", "lower")
	for _, p := range phaseNames {
		add("core.virt_phase_frac."+p, unitFrac, "lower")
	}
	add("core.virt_comm_blocked_frac", unitFrac, "lower")
	add("core.virt_unaccounted_frac", unitFrac, "lower")
	add("core.virt_hca_util", unitFrac, "higher")
	add("core.virt_pcie_util", unitFrac, "higher")
	add("core.peak_rss_mb", "MB", "lower")
	add("core.gc_cycles", unitCount, "lower")
	add("trace.overhead_frac", unitFrac, "lower")

	// train-googlenet-160 ladder.
	add("sched.node_ns", "ns", "lower")
	add("sched.build_node_ns", "ns", "lower")
	add("core.armed_overhead_frac", unitFrac, "lower")
	add("core.seq_vs_auto_wall_ratio", unitRatio, "higher")
	add("trace.span_ns", "ns", "lower")
	add("trace.export_ms", "ms", "lower")
	add("core.virt_sps_1gpu", "1/s", "higher")

	// scale-googlenet-1024 ladder (core.seq_vs_auto_wall_ratio is shared).
	add("sim.event_ns", "ns", "lower")
	add("sim.handoff_ns", "ns", "lower")
	add("sim.wait_fire_ns", "ns", "lower")
	add("sim.spawn_us_per_proc", "us", "lower")
	add("sim.parallel_speedup", unitRatio, "higher")
	add("sim.batch_width_mean", unitCount, "higher")
	add("topology.transfer_ns", "ns", "lower")
	add("topology.new_us_per_gpu", "us", "lower")
	add("mpi.world_us_per_rank", "us", "lower")
	add("core.setup_ms_per_krank", "ms", "lower")
	add("core.iter_ms_per_krank", "ms", "lower")
	add("core.allocs_per_rank", unitCount, "lower")

	// reduce-osu-160 ladder.
	add("mpi.eager_msg_ns", "ns", "lower")
	add("mpi.rndv_msg_ns", "ns", "lower")
	add("mpi.fanin_msg_ns", "ns", "lower")
	add("mpi.ibcast_ns_per_rank", "ns", "lower")
	add("mpi.barrier_ns_per_rank", "ns", "lower")
	add("mpi.virt_pingpong_us", unitVirtUs, "lower")
	add("mpi.virt_bw_gbps", "GB/s", "higher")
	add("mpi.virt_ibcast_overlap", unitFrac, "higher")
	for _, a := range reduceRungAlgs {
		add("coll.wall_us_per_reduce."+a, "us", "lower")
	}
	for _, a := range reduceRungAlgs {
		add("coll.virt_ms."+a, unitVirtMs, "lower")
	}
	add("coll.wall_us_per_allreduce.ring", "us", "lower")
	add("coll.virt_ms.ring", unitVirtMs, "lower")
	add("coll.virt_hr_regret", unitRatio, "lower")
	add("coll.virt_model_err.binomial", unitFrac, "lower")
	add("coll.virt_model_err.chain", unitFrac, "lower")

	// real-cifar10-4 ladder.
	add("tensor.gemm_gflops.conv_fwd", "GFLOP/s", "higher")
	add("tensor.gemm_gflops.conv_dw", "GFLOP/s", "higher")
	add("tensor.gemm_gflops.fc_fwd", "GFLOP/s", "higher")
	add("tensor.im2col_gbps", "GB/s", "higher")
	add("layers.fwd_ms", "ms", "lower")
	add("layers.bwd_ms", "ms", "lower")
	add("layers.allocs_per_iter", unitCount, "lower")
	add("solver.step_ns_per_param", "ns", "lower")
	add("data.fill_ns_per_sample", "ns", "lower")
	add("coll.real_reduce_gbps", "GB/s", "higher")

	// chaos-cifar10-32: derived from its own reps.
	add("fault.wall_ms_per_spec_p50", "ms", "lower")
	add("fault.wall_ms_per_spec_p80", "ms", "lower")
	add("fault.allocs_per_spec", unitCount, "lower")
	add("fault.recoveries", unitCount, "lower")
	add("fault.joins", unitCount, "higher")
	add("fault.retries", unitCount, "lower")
	add("fault.wire_revokes", unitCount, "lower")
	add("fault.fenced", unitCount, "lower")
	add("fault.stale_dissolved", unitCount, "lower")
	add("fault.unrecovered_specs", unitCount, "lower")
	add("fault.virt_slowdown", unitRatio, "lower")
	add("fault.virt_detect_ms_p50", unitVirtMs, "lower")
	add("fault.virt_recover_ms_p50", unitVirtMs, "lower")
	return d
}

// manifest renders BENCHMARK.json.
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []e2eDecl   `json:"end_to_end"`
		PerLayer   []layerDecl `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m) // a struct of strings and numbers cannot fail to encode
	return sb.String()
}

func workloadByName(name string) (workloadDecl, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDecl{}, false
}
