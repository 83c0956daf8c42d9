// Package coll implements the reduction and broadcast collective
// algorithms studied by the paper: flat binomial trees, the
// chunked-chain pipeline, the two-level hierarchical designs
// (chain-of-chain CC and chain-binomial CB), the tuned selector (HR),
// the MVAPICH2- and OpenMPI-era baselines of Figures 11–12, and a ring
// allreduce extension. It also carries the analytic cost model of
// Eq. (1)/(2).
//
// All reductions are rooted at group rank 0 of their communicator and
// reduce element-wise float32 sums. When buffers carry payloads the
// arithmetic is performed for real, so the algorithms are verified
// numerically; payload-free buffers exercise identical timing.
//
// Every algorithm is a list of steps per rank role, which one compiler
// turns into a sealed sched.Plan fragment (reduce.go): an iteration plan
// splices it in as steps on the event loop, and Reduce walks it on its
// own. The runtime's CPU-progressed Ireduce (Section 4.2), which does
// all its work inside Wait, is such a fragment spliced where the rank
// waits, so no request type models it here.
package coll

import (
	"fmt"
	"strings"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Algorithm names a reduction algorithm/configuration family.
type Algorithm int

const (
	// Binomial is the flat binomial-tree reduce (Eq. 1).
	Binomial Algorithm = iota
	// Chain is the flat chunked-chain pipelined reduce (Eq. 2).
	Chain
	// ChainChain (CC) is the two-level design with chains at both
	// levels.
	ChainChain
	// ChainBinomial (CB) is the two-level design with lower-level
	// chains and an upper-level binomial tree.
	ChainBinomial
	// ChainChainBinomial (CCB) is the three-level design the paper
	// proposes as future work for very large scales: chains at the two
	// lower levels topped by a binomial tree.
	ChainChainBinomial
	// Tuned is the HR (Tuned) selector: it picks the fastest
	// combination for the (message size, process count) pair.
	Tuned
	// MV2Baseline models the pre-co-design MVAPICH2 reduce: binomial
	// tree with CUDA-aware pipelined transfers but host-side (CPU)
	// reduction of each pair of operands.
	MV2Baseline
	// OpenMPIBaseline models OpenMPI 1.10-era reduce on GPU buffers:
	// binomial tree with small synchronous staged segments and CPU
	// reduction — the 133x column of Figure 12.
	OpenMPIBaseline
	// Rabenseifner is the classic reduce-scatter + gather algorithm
	// (bandwidth-optimal, 2b(P−1)/P traffic per rank), included for
	// algorithm-breadth comparisons.
	Rabenseifner
)

var algorithmStrings = [...]string{"binomial", "chain", "CC", "CB", "CCB", "HR(tuned)", "MV2", "OpenMPI", "RSG"}

func (a Algorithm) String() string {
	if a.known() {
		return algorithmStrings[a]
	}
	return "unknown"
}

// known reports whether a is one of the algorithms above.
func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithmStrings) }

// algorithmNames is the one table of algorithm spellings: scaffe-train's
// -reduce, omb-reduce's -algs, the solver prototxt's scaffe_reduce and a
// chaos spec's reduce all read it through ParseAlgorithm.
var algorithmNames = map[string]Algorithm{
	"binomial": Binomial, "chain": Chain, "cc": ChainChain, "cb": ChainBinomial, "ccb": ChainChainBinomial,
	"hr": Tuned, "tuned": Tuned, "mv2": MV2Baseline, "openmpi": OpenMPIBaseline,
	"rsg": Rabenseifner, "rabenseifner": Rabenseifner,
}

// ParseAlgorithm parses an algorithm name as the front ends spell it,
// in any case.
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := algorithmNames[strings.ToLower(s)]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("unknown reduce algorithm %q (want binomial, chain, cc, cb, ccb, hr or tuned, mv2, openmpi, or rsg or rabenseifner)", s)
}

// Name is the algorithm's shortest front-end spelling, the one
// ParseAlgorithm reads back ("hr" for HR(tuned)), or "" for an
// algorithm with none.
func (a Algorithm) Name() string {
	best := ""
	for name, x := range algorithmNames {
		if x == a && (best == "" || len(name) < len(best) || len(name) == len(best) && name < best) {
			best = name
		}
	}
	return best
}

// Options configures a Reducer.
type Options struct {
	// ChainSize is the lower-level communicator size for hierarchical
	// designs (the paper's ideal is 8). Ignored by flat algorithms.
	ChainSize int
	// Chunks is the pipeline depth of chain reductions (the paper's
	// n). Zero selects a size-dependent default.
	Chunks int
	// OnGPU selects GPU reduction kernels (true) or host CPU
	// reduction (false).
	OnGPU bool
	// HostReduceBW overrides the host reduction bandwidth for
	// CPU-arithmetic reducers (bytes/second; 0 = the cluster's
	// single-threaded default). Frameworks that reduce with their own
	// multi-threaded loops (CNTK's 32-bit SGD) set this higher than an
	// MPI library's single-threaded op.
	HostReduceBW float64
	// Mode is the transfer mode for point-to-point traffic.
	Mode topology.TransferMode
}

// DefaultOptions returns the CUDA-aware GPU-kernel configuration with
// the paper's ideal chain size.
func DefaultOptions() Options {
	return Options{ChainSize: 8, Chunks: 0, OnGPU: true, Mode: topology.ModeAuto}
}

// Reducer reduces a buffer of equal size from every rank of a fixed
// communicator to group rank 0. A Reducer is built once (it owns any
// sub-communicators) and then invoked concurrently by every member
// rank's proc. Contents of non-root buffers are clobbered. Tags
// tag..tag+3 are reserved for a call (multi-level designs use one tag
// per level); concurrent reduces on one communicator must space their
// tags accordingly.
type Reducer interface {
	// Reduce performs this rank's part of the collective: it walks the
	// rank's fragment on the rank's main proc and returns when it is done.
	Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int)
	// Fragment readies r's state to reduce buf and returns the fragment
	// to splice for it (sched.Plan.AddSplice), or nil if r has nothing
	// to do; its nodes read the buffer and tag from sched.Ctx.
	Fragment(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan
	// Name identifies the algorithm configuration (for reports).
	Name() string
}

// NewReducer builds a reducer for communicator c.
func NewReducer(c *mpi.Comm, alg Algorithm, o Options) Reducer {
	if o.ChainSize <= 0 {
		o.ChainSize = 8
	}
	tab := &stateTable{o: o}
	switch alg {
	case Binomial, Chain, MV2Baseline, OpenMPIBaseline, Rabenseifner:
		fam := [...]func([]step, role) []step{Binomial: binomial, Chain: chain, MV2Baseline: mv2, OpenMPIBaseline: openMPI, Rabenseifner: rsg}[alg]
		if s := c.Size(); alg == Rabenseifner && s&(s-1) != 0 { // recursive halving needs a power of two
			fam = chain
		}
		return flat(alg.String(), fam, tab, c)
	case ChainChain, ChainBinomial, ChainChainBinomial:
		return newHierarchical(c, o, alg, tab)
	case Tuned:
		t := newTuned(c, o)
		return &reducer{name: Tuned.String(), tab: t.binomial.tab, tuned: t}
	}
	panic(fmt.Sprintf("coll: unknown algorithm %d", int(alg)))
}

// reduceEnd performs acc += operand, charging the reduction to the
// rank's GPU comm stream or its CPU, and returns the time the reduction
// completes: the next algorithm step depends on the result, so the rank
// waits until then.
func reduceEnd(r *mpi.Rank, acc, operand *gpu.Buffer, o Options) sim.Time {
	acc.Accumulate(operand)
	if o.OnGPU {
		_, end := r.Dev.LaunchReduce(r.Now(), acc.Bytes)
		return end
	}
	if o.HostReduceBW > 0 {
		return r.Now() + sim.Duration(float64(acc.Bytes)/o.HostReduceBW*float64(sim.Second))
	}
	return r.Now() + r.W.Cluster.ReduceTime(acc.Bytes, false)
}

// defaultChunks picks a pipeline depth: enough chunks to fill the
// chain but no chunk smaller than 256 KiB.
func defaultChunks(bytes int64, requested int) int {
	if requested > 0 {
		return requested
	}
	n := min(max(int(bytes/(1<<20)), 4), 64) // ~1 MiB chunks
	for int64(n) > bytes/(256<<10) && n > 1 {
		n /= 2
	}
	return n
}
