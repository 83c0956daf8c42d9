// Package scaffe is a faithful reproduction of S-Caffe ("S-Caffe:
// Co-designing MPI Runtimes and Caffe for Scalable Deep Learning on
// Modern GPU Clusters", PPoPP 2017) as a pure-Go system: a
// deterministic discrete-event GPU-cluster simulator, a CUDA-aware MPI
// runtime subset, the paper's hierarchical reduction designs, a
// Caffe-style deep-learning framework with real and cost-model
// execution, and the SC-B / SC-OB / SC-OBR co-designed training
// pipelines plus the comparison systems of the paper's evaluation.
//
// The package is a facade over the internal packages: it exposes
// training runs (Train), collective micro-benchmarks (ReduceBench,
// mirroring the OSU micro-benchmark methodology of Section 6.5), model
// specs, and the cluster presets of the paper's two testbeds.
//
// Quick start:
//
//	cfg := scaffe.Config{
//		Spec:        scaffe.MustModel("googlenet"),
//		GPUs:        32,
//		GlobalBatch: 256,
//		Iterations:  10,
//		Design:      scaffe.SCOBR,
//		Reduce:      scaffe.ReduceHR,
//		Source:      scaffe.ImageData,
//	}
//	res, err := scaffe.Train(cfg)
package scaffe

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/mpi"
	"scaffe/internal/proto"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
	"scaffe/internal/trace"
)

// Config describes one training run; see the field documentation in
// the core package.
type Config = core.Config

// Result reports a training run's timing, throughput, phase breakdown,
// and (in real-compute mode) losses and final parameters.
type Result = core.Result

// Phases is the per-phase blocked-time breakdown at the root solver.
type Phases = core.Phases

// Design selects the training pipeline.
type Design = core.Design

// The training pipelines of the paper's evaluation.
const (
	// SCB is the basic CUDA-aware MPI design (Section 4.1).
	SCB = core.SCB
	// SCOB overlaps data propagation with the forward pass (4.2).
	SCOB = core.SCOB
	// SCOBR adds helper-thread overlapped gradient aggregation (4.3).
	SCOBR = core.SCOBR
	// Caffe is the single-node multi-threaded baseline.
	Caffe = core.CaffeMT
	// CNTK is the host-staged MPI allreduce baseline.
	CNTK = core.CNTKLike
	// InspurPS is the parameter-server baseline (2–16 GPUs only).
	InspurPS = core.ParamServer
)

// SourceKind selects the training-data backend.
type SourceKind = core.SourceKind

// The storage backends of Figure 8.
const (
	// InMemory serves data at zero I/O cost.
	InMemory = core.MemorySource
	// LMDB is the shared-environment database (the "S-Caffe-L"
	// series; collapses past 64 readers).
	LMDB = core.LMDBSource
	// ImageData reads image files from the parallel filesystem (the
	// "S-Caffe" series; scales to 160 GPUs).
	ImageData = core.ImageDataSource
)

// ReduceAlgorithm selects the gradient-aggregation collective.
type ReduceAlgorithm = coll.Algorithm

// The reduction designs of Section 5 and Figures 11–12.
const (
	// ReduceBinomial is the flat binomial tree (Eq. 1).
	ReduceBinomial = coll.Binomial
	// ReduceChain is the flat chunked-chain pipeline (Eq. 2).
	ReduceChain = coll.Chain
	// ReduceCC is the two-level chain-of-chain design.
	ReduceCC = coll.ChainChain
	// ReduceCB is the two-level chain-binomial design.
	ReduceCB = coll.ChainBinomial
	// ReduceCCB is the three-level chain-chain-binomial design the
	// paper proposes as future work for very large scales.
	ReduceCCB = coll.ChainChainBinomial
	// ReduceHR is the tuned hierarchical selector (the paper's HR).
	ReduceHR = coll.Tuned
	// ReduceMV2 is the MVAPICH2-era baseline.
	ReduceMV2 = coll.MV2Baseline
	// ReduceOpenMPI is the OpenMPI-era baseline.
	ReduceOpenMPI = coll.OpenMPIBaseline
	// ReduceRabenseifner is the classic reduce-scatter + gather
	// algorithm (bandwidth-optimal), for algorithm-breadth studies.
	ReduceRabenseifner = coll.Rabenseifner
)

// ReduceOptions configures chain size, pipeline depth, arithmetic
// placement, and transfer mode for the reduction algorithms.
type ReduceOptions = coll.Options

// Spec is a model's cost geometry (per-layer parameters and FLOPs).
type Spec = models.Spec

// Dataset is a random-access training dataset.
type Dataset = data.Dataset

// Trace records per-rank phase timelines; attach one to Config.Trace
// and export it with WriteChromeTrace or Gantt after the run.
type Trace = trace.Recorder

// Sentinel errors a caller (or exit code) can branch on.
var (
	// ErrConfig wraps every configuration-validation failure.
	ErrConfig = core.ErrConfig
	// ErrUnrecovered reports a faulted run that lost every rank.
	ErrUnrecovered = core.ErrUnrecovered
)

// FaultSchedule scripts deterministic fault injection; attach one to
// Config.Faults to arm the fault-tolerance plane.
type FaultSchedule = fault.Schedule

// FaultEvent is one scripted fault.
type FaultEvent = fault.Event

// FaultReport summarizes a faulted run (Result.Fault).
type FaultReport = fault.Report

// FaultRecovery describes one detected failure and its recovery.
type FaultRecovery = fault.Recovery

// JoinRecord describes one rank admission through the elastic grow
// path (Result.Fault.Joins).
type JoinRecord = fault.JoinRecord

// FaultEvict is the recovery kind of a proactive membership eviction
// (scripted "evict" events and the straggler policy), as opposed to a
// detected crash or hang.
const FaultEvict = fault.Evict

// IntegrityMode arms the silent-data-corruption plane (Config.Integrity):
// checksummed collective transfers plus the root's numeric-health
// watchdog with micro-rollback.
type IntegrityMode = core.IntegrityMode

// The integrity plane's modes.
const (
	// IntegrityOff runs the exact seed code paths.
	IntegrityOff = core.IntegrityOff
	// IntegrityDetect verifies and counts corruption without altering
	// the run.
	IntegrityDetect = core.IntegrityDetect
	// IntegrityRecover retransmits corrupted chunks and micro-rolls-
	// back watchdog trips.
	IntegrityRecover = core.IntegrityRecover
)

// IntegrityReport summarizes the integrity plane's run
// (Result.Integrity).
type IntegrityReport = core.IntegrityReport

// LoadFaultSchedule reads a fault-schedule file (one event per line,
// e.g. "100ms crash rank=3"; see configs/faults_demo.txt).
func LoadFaultSchedule(path string) (FaultSchedule, error) { return fault.LoadSchedule(path) }

// ParseFaultSchedule parses the textual schedule format.
func ParseFaultSchedule(text string) (FaultSchedule, error) { return fault.ParseSchedule(text) }

// ParseIntegrityMode parses the CLI spelling of an integrity mode:
// "off" (or empty), "detect", or "recover".
func ParseIntegrityMode(s string) (IntegrityMode, error) { return core.ParseIntegrityMode(s) }

// ParseDesign, ParseReduceAlgorithm and ParseSource parse the names
// every front end uses (command-line flags, solver prototxt, chaos
// specs), in any case. A name they do not know is an ErrConfig.
func ParseDesign(s string) (Design, error) { return core.ParseDesign(s) }

func ParseReduceAlgorithm(s string) (ReduceAlgorithm, error) {
	a, err := coll.ParseAlgorithm(s)
	if err != nil {
		return a, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return a, nil
}

func ParseSource(s string) (SourceKind, error) { return core.ParseSource(s) }

// NewTrace returns an empty timeline recorder.
func NewTrace() *Trace { return trace.New() }

// Train runs one training configuration to completion in virtual time.
func Train(cfg Config) (*Result, error) { return core.Run(cfg) }

// Model returns the spec for one of the paper's networks: "alexnet",
// "caffenet", "googlenet", "cifar10-quick", "lenet", or "tiny".
func Model(name string) (*Spec, error) { return models.ByName(name) }

// MustModel is Model, panicking on unknown names (for constant
// configuration).
func MustModel(name string) *Spec {
	s, err := models.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// RealNetBuilder returns a constructor for the real-compute networks
// ("lenet", "cifar10-quick", "tiny"), or an error for timing-only
// models.
func RealNetBuilder(name string) (func(batch int, seed int64) *layers.Net, error) {
	switch name {
	case "lenet":
		return models.BuildLeNet, nil
	case "cifar10-quick", "cifar10":
		return models.BuildCIFAR10Quick, nil
	case "tiny":
		return models.BuildTinyNet, nil
	}
	return nil, fmt.Errorf("scaffe: no real-compute implementation for %q (timing-only model)", name)
}

// LoadSolver reads a Caffe-style solver prototxt (see configs/ for
// samples) into a training Config.
func LoadSolver(path string) (Config, error) { return proto.LoadSolver(path) }

// SyntheticDataset returns the deterministic learnable dataset
// matching a real-compute model's input geometry.
func SyntheticDataset(model string, n int, seed int64) (Dataset, error) {
	switch model {
	case "lenet":
		return data.SyntheticMNIST(n, seed), nil
	case "cifar10-quick", "cifar10":
		return data.SyntheticCIFAR10(n, seed), nil
	case "tiny":
		return data.NewSynthetic("tiny", layers.Shape{C: 3, H: 8, W: 8}, 4, n, seed), nil
	case "alexnet", "caffenet", "googlenet":
		return data.SyntheticImageNet(n, seed), nil
	}
	return nil, fmt.Errorf("scaffe: no synthetic dataset for %q", model)
}

// ReduceBenchConfig describes one OSU-style reduce micro-benchmark
// point: a single MPI_Reduce of Bytes over Ranks GPUs.
type ReduceBenchConfig struct {
	// Ranks is the number of GPU processes.
	Ranks int
	// Nodes and GPUsPerNode shape the cluster (defaults: Cluster-A
	// geometry, 16 GPUs per node).
	Nodes, GPUsPerNode int
	// Bytes is the message size.
	Bytes int64
	// Algorithm and Options select the reduction design.
	Algorithm ReduceAlgorithm
	// Options configures chain size and pipeline depth; the zero value
	// selects the defaults of Section 5 (chain size 8, GPU kernels,
	// auto transfer mode).
	Options ReduceOptions
	// Trials averages over this many timed reductions (default 3),
	// after one untimed warm-up.
	Trials int
}

// ReduceBench measures the latency of one reduction configuration: the
// mean, over trials, of the span from the synchronized start to the
// last rank's completion. Runs are deterministic.
func ReduceBench(cfg ReduceBenchConfig) (sim.Duration, error) {
	if cfg.GPUsPerNode == 0 {
		cfg.GPUsPerNode = 16
	}
	if cfg.Nodes == 0 && cfg.GPUsPerNode > 0 {
		cfg.Nodes = (cfg.Ranks + cfg.GPUsPerNode - 1) / cfg.GPUsPerNode
	}
	if cfg.Trials == 0 {
		cfg.Trials = 3
	}
	switch {
	case cfg.Ranks < 1:
		return 0, fmt.Errorf("scaffe: reduce bench needs at least 1 rank")
	case cfg.Nodes < 1 || cfg.GPUsPerNode < 1:
		return 0, fmt.Errorf("scaffe: reduce bench cluster of %d nodes of %d GPUs", cfg.Nodes, cfg.GPUsPerNode)
	case cfg.Ranks > cfg.Nodes*cfg.GPUsPerNode:
		return 0, fmt.Errorf("scaffe: %d ranks on %d nodes of %d GPUs", cfg.Ranks, cfg.Nodes, cfg.GPUsPerNode)
	}
	if cfg.Options == (ReduceOptions{}) {
		cfg.Options = coll.DefaultOptions()
	}
	cluster := topology.New(sim.New(), "bench", cfg.Nodes, cfg.GPUsPerNode, topology.DefaultParams())
	return coll.ReduceLatency(mpi.NewWorld(cluster, cfg.Ranks), cfg.Algorithm, cfg.Options, cfg.Bytes, cfg.Trials)
}

// OverlapResult reports an Ibcast overlap measurement (the OSU
// non-blocking-collective methodology behind Section 4.2): how much of
// the broadcast latency disappears behind an equally long compute
// phase.
type OverlapResult struct {
	// BlockingTime is the plain Bcast latency.
	BlockingTime sim.Duration
	// ComputeTime is the injected compute phase length.
	ComputeTime sim.Duration
	// OverlappedTime is Ibcast + compute + Wait.
	OverlappedTime sim.Duration
	// Overlap is the fraction of communication hidden:
	// (Blocking + Compute − Overlapped) / Blocking, clamped to [0,1].
	Overlap float64
}

// IbcastOverlapBench measures how much of a broadcast the offloaded
// Ibcast engine hides behind compute at the worst-placed (deepest)
// rank.
func IbcastOverlapBench(ranks int, bytes int64) (*OverlapResult, error) {
	if ranks < 2 || bytes < 0 {
		return nil, fmt.Errorf("scaffe: overlap bench of %d bytes over %d ranks (needs at least 2)", bytes, ranks)
	}
	measure := func(compute sim.Duration) (sim.Duration, error) {
		cluster := topology.New(sim.New(), "ov", (ranks+15)/16, 16, topology.DefaultParams())
		return coll.IbcastLatency(mpi.NewWorld(cluster, ranks), bytes, compute)
	}
	blocking, err := measure(0)
	if err != nil {
		return nil, err
	}
	res := &OverlapResult{BlockingTime: blocking, ComputeTime: blocking}
	res.OverlappedTime, err = measure(blocking)
	if err != nil {
		return nil, err
	}
	ov := float64(res.BlockingTime+res.ComputeTime-res.OverlappedTime) / float64(res.BlockingTime)
	if ov < 0 {
		ov = 0
	}
	if ov > 1 {
		ov = 1
	}
	res.Overlap = ov
	return res, nil
}
