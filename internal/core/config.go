// Package core implements the S-Caffe training engine and its
// co-designed iteration pipelines: SC-B (blocking CUDA-aware
// broadcast/reduce), SC-OB (multi-stage non-blocking data propagation
// overlapped with the forward pass), and SC-OBR (helper-thread
// gradient aggregation overlapped with the backward pass, combined
// with the hierarchical reduce). It also implements the comparison
// systems of the evaluation: single-node multi-threaded Caffe, a
// CNTK-like host-staged MPI framework, and an Inspur-style
// parameter server.
package core

import (
	"errors"
	"fmt"
	"strings"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
	"scaffe/internal/trace"
)

// ErrConfig tags configuration errors: callers (the CLI) distinguish
// them from runtime failures with errors.Is.
var ErrConfig = errors.New("invalid configuration")

// ErrUnrecovered tags runs that injected failures killed outright —
// no survivors were left to shrink the world and continue.
var ErrUnrecovered = errors.New("unrecovered failure")

// Design selects the training pipeline.
type Design int

const (
	// SCB is S-Caffe Basic: blocking CUDA-aware Bcast + Reduce on the
	// packed buffers (Section 4.1).
	SCB Design = iota
	// SCOB adds multi-stage non-blocking data propagation: all
	// per-layer Ibcasts posted up front, each Wait placed just before
	// the consuming layer's forward pass (Section 4.2).
	SCOB
	// SCOBR adds helper-thread gradient aggregation overlapped with
	// the backward pass (Section 4.3); pair it with coll.Tuned for the
	// full co-design.
	SCOBR
	// CaffeMT is the single-node multi-threaded Caffe baseline
	// (reduction tree over CUDA IPC, single shared data reader,
	// intra-node only).
	CaffeMT
	// CNTKLike is an MPI framework without CUDA-awareness or overlap:
	// gradients staged to the host and allreduced there with CPU
	// arithmetic (Microsoft CNTK's 32-bit SGD style).
	CNTKLike
	// ParamServer is the Inspur-Caffe-style design: one GPU rank
	// serves parameters and aggregates every worker's gradients
	// sequentially.
	ParamServer
)

func (d Design) String() string {
	switch d {
	case SCB:
		return "SC-B"
	case SCOB:
		return "SC-OB"
	case SCOBR:
		return "SC-OBR"
	case CaffeMT:
		return "Caffe"
	case CNTKLike:
		return "CNTK-like"
	case ParamServer:
		return "ParamServer"
	}
	return "unknown"
}

// designNames is the one table of design spellings: scaffe-train's
// -design, the solver prototxt's scaffe_design and a chaos spec's design
// all read it through ParseDesign.
var designNames = map[string]Design{
	"scb": SCB, "scob": SCOB, "scobr": SCOBR,
	"caffe": CaffeMT, "cntk": CNTKLike, "ps": ParamServer, "inspur": ParamServer,
}

// ParseDesign parses a design name as the front ends spell it, in any
// case. Whether the rest of a configuration allows the design (a fault
// schedule, real-compute mode) is Config validation's decision, not the
// parser's.
func ParseDesign(s string) (Design, error) {
	if d, ok := designNames[strings.ToLower(s)]; ok {
		return d, nil
	}
	return 0, fmt.Errorf("%w: unknown design %q (want scb, scob, scobr, caffe, cntk, or ps or inspur)", ErrConfig, s)
}

// Name is the design's shortest front-end spelling, the one ParseDesign
// reads back ("scobr" for SC-OBR), or "" for a design with none.
func (d Design) Name() string {
	best := ""
	for name, x := range designNames {
		if x == d && (best == "" || len(name) < len(best) || len(name) == len(best) && name < best) {
			best = name
		}
	}
	return best
}

// SourceKind selects the storage backend for training data.
type SourceKind int

const (
	// MemorySource serves batches at zero I/O cost.
	MemorySource SourceKind = iota
	// LMDBSource reads through the shared-environment LMDB model
	// (scalability cliff past 64 readers) — the "S-Caffe-L" series.
	LMDBSource
	// ImageDataSource reads image files from the parallel filesystem
	// model — the "S-Caffe" series that scales to 160 GPUs.
	ImageDataSource
)

func (s SourceKind) String() string {
	switch s {
	case MemorySource:
		return "memory"
	case LMDBSource:
		return "lmdb"
	case ImageDataSource:
		return "imagedata"
	}
	return "unknown"
}

// ParseSource parses a data-backend name as the front ends spell it, in
// any case.
func ParseSource(s string) (SourceKind, error) {
	switch strings.ToLower(s) {
	case "memory":
		return MemorySource, nil
	case "lmdb":
		return LMDBSource, nil
	case "imagedata":
		return ImageDataSource, nil
	}
	return 0, fmt.Errorf("%w: unknown data backend %q (want memory, lmdb, or imagedata)", ErrConfig, s)
}

// Config describes one training run.
type Config struct {
	// Spec is the model's cost geometry (required).
	Spec *models.Spec
	// RealNet optionally builds a real-compute network per rank; when
	// set, forward/backward/update perform actual float32 math and
	// Result carries losses and final parameters.
	RealNet func(batch int, seed int64) *layers.Net
	// Dataset supplies real samples (required when RealNet is set).
	Dataset data.Dataset

	// Nodes and GPUsPerNode shape the cluster. Zero values default to
	// ceil(GPUs/16) nodes of 16 GPUs (Cluster-A geometry).
	Nodes, GPUsPerNode int
	// Params overrides hardware constants (nil = defaults).
	Params *topology.Params
	// GPUs is the number of solvers (MPI ranks).
	GPUs int

	// GlobalBatch is the effective batch size. Under strong scaling
	// (Weak=false, the paper's presented mode) it is divided across
	// GPUs; under weak scaling each GPU gets the full value.
	GlobalBatch int
	// Weak selects weak scaling (the paper's `-scal weak`).
	Weak bool
	// Iterations is the number of training iterations.
	Iterations int

	// Design selects the pipeline; Reduce/ReduceOpts pick the gradient
	// aggregation algorithm for the S-Caffe designs.
	Design     Design
	Reduce     coll.Algorithm
	ReduceOpts coll.Options
	// Source picks the data backend.
	Source SourceKind
	// BucketBytes, when positive, coalesces consecutive layers'
	// gradients into buckets of at least this size before SC-OBR's
	// multi-stage reduction — the gradient-fusion optimization
	// FireCaffe introduced and later frameworks (PyTorch DDP)
	// standardized. Zero reduces strictly per layer, as the paper does.
	// No other design reduces per layer, so validation rejects a bucket
	// size on any design but SC-OBR.
	BucketBytes int64

	// BaseLR, Momentum, WeightDecay are the solver hyper-parameters
	// (real-compute mode). Zero BaseLR defaults to 0.01.
	BaseLR, Momentum, WeightDecay float64
	// LRPolicy selects the learning-rate schedule: "fixed" (default),
	// "step", "inv", or "poly", with Gamma/Power/StepSize as in Caffe.
	LRPolicy string
	// Gamma, Power, StepSize parameterize the LR policy.
	Gamma, Power float64
	StepSize     int

	// TestInterval, when positive, runs a held-out evaluation pass on
	// the root solver every TestInterval iterations (real mode; the
	// paper obtains accuracy "during the Testing phase").
	TestInterval int
	// TestBatches is the number of root-batch-sized test passes per
	// evaluation (default 2).
	TestBatches int
	// SnapshotEvery, when positive, writes a parameter snapshot every
	// N iterations (real mode).
	SnapshotEvery int
	// SnapshotPrefix is the snapshot filename prefix (Caffe
	// convention: prefix_iter_N).
	SnapshotPrefix string
	// ResumeFrom restores the root solver's parameters from a
	// snapshot file before training (real mode).
	ResumeFrom string
	// StartIteration, with ResumeFrom, continues training from an
	// absolute iteration: the learning-rate schedule and data order
	// pick up where the snapshotted run left off. Zero trains from
	// the beginning.
	StartIteration int

	// Faults scripts deterministic fault injection (see
	// internal/fault). Every run executes the same per-rank loop on a
	// fault plane; a non-empty schedule (like Integrity or EvictFactor)
	// wires the plane into the MPI waits and the links — failure
	// detection, elastic shrink/restore recovery — and puts the fault
	// report in Result. A wired plane that never trips leaves virtual
	// time where an unwired one does.
	Faults fault.Schedule
	// FaultTimeout overrides the failure-detection deadline quantum
	// (default fault.DefaultTimeout).
	FaultTimeout sim.Duration
	// MaxVirtualTime, when positive, aborts the run if virtual time
	// reaches this ceiling — the chaos harness's no-wedge guarantee: a
	// run that neither finishes nor dies ErrUnrecovered within the
	// ceiling is a wedged schedule, surfaced as a kernel deadline
	// error instead of an infinite loop. Zero runs unbounded.
	MaxVirtualTime sim.Duration

	// EvictFactor, when >= 1, arms the straggler-aware membership
	// policy: the root tracks each member's iteration-completion EWMA
	// and evicts a rank whose EWMA exceeds EvictFactor times the
	// member median for EvictWindow consecutive iterations. The
	// evicted rank is readmitted through the join path once a recover
	// event restores it. Zero leaves the policy off (the grow plane
	// stays armed for scripted join/evict events regardless).
	EvictFactor float64
	// EvictWindow is the number of consecutive over-threshold
	// iterations before an eviction fires (default 3).
	EvictWindow int

	// Integrity arms the silent-data-corruption plane: per-chunk
	// checksums on collective receives and broadcast edges, plus (in
	// real mode) the root's numeric-health watchdog with micro-
	// rollback. IntegrityOff runs the exact seed code paths.
	Integrity IntegrityMode
	// IntegrityRetries caps micro-rollback retries of one tripped
	// iteration before its batch is quarantined (update skipped).
	// Zero defaults to 2; negative quarantines on the first trip.
	IntegrityRetries int
	// RetransmitBudget caps per-chunk retransmissions before a
	// corrupted transfer escalates to a communicator revocation
	// (default 2).
	RetransmitBudget int

	// Trace, when non-nil, records every phase span of every rank for
	// timeline export (see internal/trace).
	Trace *trace.Recorder

	// CaptureFinalParams copies the root solver's packed parameter
	// vector into Result.FinalParams after the last update (real mode
	// only). Opt-in because the copy is a full model's worth of floats
	// — ~240 MB for AlexNet — that pure throughput runs never read.
	CaptureFinalParams bool

	// SimParallel is ignored beyond being validated (negative values
	// are rejected). It sized the parallel-lookahead kernel mode, which
	// is gone (DESIGN.md §13): every run uses the one sequential event
	// kernel. The field stays only because bench/ladder.go, which a
	// change may not edit, still sets it; it goes with that rung.
	SimParallel int

	// Seed makes parameter init and data order deterministic.
	Seed int64
}

func (c *Config) validate() error {
	if c.Spec == nil {
		return fmt.Errorf("core: config needs a model Spec")
	}
	if c.GPUs < 1 {
		return fmt.Errorf("core: need at least 1 GPU, got %d", c.GPUs)
	}
	if c.GlobalBatch < 1 {
		return fmt.Errorf("core: need a positive batch size, got %d", c.GlobalBatch)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: need at least 1 iteration, got %d", c.Iterations)
	}
	if c.RealNet != nil && c.Dataset == nil {
		return fmt.Errorf("core: real-compute mode needs a Dataset")
	}
	if c.RealNet == nil && (c.TestInterval > 0 || c.SnapshotEvery > 0 || c.ResumeFrom != "") {
		return fmt.Errorf("core: test/snapshot/resume options need real-compute mode (RealNet)")
	}
	if c.StartIteration != 0 && (c.StartIteration < 0 || c.StartIteration >= c.Iterations) {
		return fmt.Errorf("core: start iteration %d outside [0,%d)", c.StartIteration, c.Iterations)
	}
	if c.StartIteration > 0 && c.ResumeFrom == "" {
		return fmt.Errorf("core: StartIteration needs ResumeFrom (a snapshot to continue from)")
	}
	if len(c.Faults) > 0 {
		switch c.Design {
		case SCB, SCOB, SCOBR, CNTKLike:
		default:
			return fmt.Errorf("core: fault injection supports the MPI data-parallel designs only, not %s", c.Design)
		}
	}
	if c.EvictFactor != 0 {
		if c.EvictFactor < 1 {
			return fmt.Errorf("core: eviction factor must be >= 1 (multiples of the median iteration EWMA), got %g", c.EvictFactor)
		}
		switch c.Design {
		case SCB, SCOB, SCOBR, CNTKLike:
		default:
			return fmt.Errorf("core: the straggler-eviction policy supports the MPI data-parallel designs only, not %s", c.Design)
		}
	}
	switch c.Integrity {
	case IntegrityOff, IntegrityDetect, IntegrityRecover:
	default:
		return fmt.Errorf("core: unknown integrity mode %d", int(c.Integrity))
	}
	if c.Integrity != IntegrityOff {
		switch c.Design {
		case SCB, SCOB, SCOBR:
		case CNTKLike:
			if c.RealNet != nil {
				return fmt.Errorf("core: integrity in real-compute mode needs a root-broadcast design (the parameter broadcast heals replicas after a rollback), not %s", c.Design)
			}
		default:
			return fmt.Errorf("core: integrity plane supports the MPI data-parallel designs only, not %s", c.Design)
		}
	}
	for i, ev := range c.Faults {
		switch ev.Kind {
		case fault.BitFlip:
			if c.RealNet == nil {
				return fmt.Errorf("core: fault event %d: bitflip corrupts resident parameters and needs real-compute mode (RealNet)", i)
			}
			if c.Integrity == IntegrityOff {
				return fmt.Errorf("core: fault event %d: bitflip needs the integrity plane armed (Integrity detect or recover)", i)
			}
		case fault.CorruptWire:
			if c.Integrity == IntegrityOff {
				return fmt.Errorf("core: fault event %d: corrupt-wire needs the integrity plane armed (Integrity detect or recover)", i)
			}
		}
	}
	if workers := c.workers(); !c.Weak && workers > 0 && c.GlobalBatch%workers != 0 {
		return fmt.Errorf("core: strong scaling needs batch %d divisible by %d workers", c.GlobalBatch, workers)
	}
	switch c.Design {
	case SCB, SCOB, SCOBR, CaffeMT, CNTKLike, ParamServer:
	default:
		return fmt.Errorf("core: unknown design %d", int(c.Design))
	}
	if c.BucketBytes > 0 && c.Design != SCOBR {
		return fmt.Errorf("core: bucket size %d bytes set on %s, but only SC-OBR reduces gradients per layer or per bucket", c.BucketBytes, c.Design)
	}
	if c.Design == ParamServer {
		if c.GPUs < 2 {
			return fmt.Errorf("core: parameter server needs at least 2 GPUs (1 server + workers)")
		}
		if c.GPUs > 16 {
			return fmt.Errorf("core: parameter-server design unsupported beyond 16 GPUs (execution hangs)")
		}
		if c.RealNet != nil {
			return fmt.Errorf("core: parameter-server design is timing-only (no real-compute support)")
		}
	}
	return nil
}

// normalize fills defaulted fields in place: cluster geometry
// (Cluster-A: 16-GPU nodes, as many as the ranks need) and the reducer
// options. Nonsense values — fields that zero-defaulting would
// otherwise silently accept and that panic or hang far downstream — are
// rejected with descriptive errors. Every entry point goes through
// validateAndDefault, so code after it sees only concrete, sane values.
func (c *Config) normalize() error {
	switch {
	case c.Nodes < 0:
		return fmt.Errorf("core: node count must be positive, got %d", c.Nodes)
	case c.GPUsPerNode < 0:
		return fmt.Errorf("core: GPUs per node must be positive, got %d", c.GPUsPerNode)
	case c.BucketBytes < 0:
		return fmt.Errorf("core: bucket size must be positive, got %d bytes", c.BucketBytes)
	case c.TestInterval < 0:
		return fmt.Errorf("core: test interval must be positive, got %d", c.TestInterval)
	case c.TestBatches < 0:
		return fmt.Errorf("core: test batch count must be positive, got %d", c.TestBatches)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("core: snapshot interval must be positive, got %d", c.SnapshotEvery)
	case c.FaultTimeout < 0:
		return fmt.Errorf("core: fault-detection timeout must be positive, got %v", c.FaultTimeout)
	case c.MaxVirtualTime < 0:
		return fmt.Errorf("core: virtual-time ceiling must be positive, got %v", c.MaxVirtualTime)
	case c.BaseLR < 0:
		return fmt.Errorf("core: base learning rate must be positive, got %g", c.BaseLR)
	case c.RetransmitBudget < 0:
		return fmt.Errorf("core: chunk retransmit budget must be positive, got %d", c.RetransmitBudget)
	case c.SimParallel < 0:
		return fmt.Errorf("core: simulation worker count must be non-negative, got %d", c.SimParallel)
	case c.EvictWindow < 0:
		return fmt.Errorf("core: eviction window must be positive, got %d", c.EvictWindow)
	}
	if c.IntegrityRetries == 0 {
		c.IntegrityRetries = 2
	}
	if c.RetransmitBudget == 0 {
		c.RetransmitBudget = 2
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 16
	}
	if c.Nodes == 0 {
		c.Nodes = (c.GPUs + c.GPUsPerNode - 1) / c.GPUsPerNode
	}
	if c.EvictFactor > 0 && c.EvictWindow == 0 {
		c.EvictWindow = 3
	}
	if c.ReduceOpts == (coll.Options{}) {
		c.ReduceOpts = coll.DefaultOptions()
	}
	return nil
}

// validateAndDefault validates the config, fills defaults, and then
// checks the constraints that only make sense on a normalized config
// (cluster capacity, Caffe's single-node limit, the fault schedule's
// rank and node targets).
func (c *Config) validateAndDefault() error {
	if err := c.validate(); err != nil {
		return err
	}
	if err := c.normalize(); err != nil {
		return err
	}
	if c.Nodes*c.GPUsPerNode < c.GPUs {
		return fmt.Errorf("core: cluster %dx%d too small for %d GPUs", c.Nodes, c.GPUsPerNode, c.GPUs)
	}
	if c.Design == CaffeMT && c.GPUs > c.GPUsPerNode {
		return fmt.Errorf("core: Caffe is single-node multi-threaded; %d GPUs exceed the node's %d", c.GPUs, c.GPUsPerNode)
	}
	if err := c.Faults.Validate(c.GPUs, c.Nodes); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// workers returns the number of solvers the global batch is divided
// over: every rank, except that the parameter server does not train.
func (c *Config) workers() int {
	if c.Design == ParamServer {
		return c.GPUs - 1
	}
	return c.GPUs
}

// localBatch returns the per-GPU batch for worker count n.
func (c *Config) localBatch(workers int) int {
	if c.Weak {
		return c.GlobalBatch
	}
	b := c.GlobalBatch / workers
	if b < 1 {
		b = 1
	}
	return b
}

// Phases is the per-phase time breakdown measured at the root solver:
// the time the root's main thread spends blocked in each phase, summed
// over iterations. Overlap shows up as a phase shrinking while total
// stays dominated by compute.
type Phases struct {
	DataWait    sim.Duration
	Propagation sim.Duration
	Forward     sim.Duration
	Backward    sim.Duration
	Aggregation sim.Duration
	Update      sim.Duration
}

// Total sums the accounted phases.
func (p Phases) Total() sim.Duration {
	return p.DataWait + p.Propagation + p.Forward + p.Backward + p.Aggregation + p.Update
}

// add accumulates a span into the named phase's bucket; unknown phase
// names (wire spans, the catch-up protocol's "catchup" and other
// diagnostics) are not part of the blocked-time breakdown and are
// ignored.
func (p *Phases) add(phase string, d sim.Duration) {
	switch phase {
	case "data":
		p.DataWait += d
	case "propagation":
		p.Propagation += d
	case "forward":
		p.Forward += d
	case "backward":
		p.Backward += d
	case "aggregation":
		p.Aggregation += d
	case "update":
		p.Update += d
	}
}

// Result reports one run's outcome.
type Result struct {
	Design      string
	Model       string
	GPUs        int
	GlobalBatch int
	LocalBatch  int
	Iterations  int
	Source      string
	ReduceAlg   string

	// TotalTime is the virtual wall-clock of the whole run.
	TotalTime sim.Time
	// Phases is the root solver's blocked-time breakdown.
	Phases Phases
	// SamplesPerSec is throughput in trained samples per virtual
	// second.
	SamplesPerSec float64

	// Losses holds the per-iteration training loss (real mode only).
	Losses []float32
	// Accuracies holds the held-out accuracy of each test pass (real
	// mode with TestInterval set).
	Accuracies []float64
	// SnapshotFiles lists snapshots written during the run.
	SnapshotFiles []string
	// FinalParams is the root solver's packed parameter vector after
	// the last update (real mode with Config.CaptureFinalParams only).
	FinalParams []float32

	// Fault is the fault-injection outcome — injected events,
	// detection latencies, recovery times, survivor count. Nil for
	// fault-free runs.
	Fault *fault.Report

	// Integrity is the integrity plane's outcome — corruptions
	// detected, chunks retransmitted, watchdog trips, rollbacks,
	// quarantined batches. Nil when the plane is off.
	Integrity *IntegrityReport

	// HCAUtilization is the mean busy fraction of the InfiniBand
	// adapters over the run (both directions), a view into how
	// communication-bound the configuration is.
	HCAUtilization float64
	// PCIeUtilization is the same for the GPUs' PCIe links.
	PCIeUtilization float64

	// Resumes counts how the event kernel delivered the run's proc
	// resumes: a training run's procs have no goroutine, so each is a
	// step or a finish, and Switches (into a Spawn proc's coroutine)
	// reads 0. It describes the simulation's host-side work, not its
	// virtual outcome: an armed fault plane's deadline expiries show up
	// here and nowhere else.
	Resumes sim.Resumes
}

// TimePerIter returns the mean iteration time.
func (r *Result) TimePerIter() sim.Duration {
	return sim.Duration(int64(r.TotalTime) / int64(r.Iterations))
}
