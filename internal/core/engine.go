package core

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/pfs"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/solver"
	"scaffe/internal/topology"
)

// The engine's tags. A reducer call reserves tag..tag+3 (each level of
// a hierarchical reducer takes the next tag) and the ring tag..tag+2P,
// so SC-OBR's per-layer (or per-bucket) reduces sit four apart; mpi's
// barrier takes the tags from mpi.TagBarrier up. TestTagRangesDisjoint
// checks that the tags one design uses never overlap.
const (
	tagPackedReduce = 100  // the packed gradients' reduce, or CNTK-like's ring
	tagLayerReduce  = 1000 // + 4*layer, or + 4*bucket
	tagPS           = 50   // parameters to a worker; + 1: its gradients back
	tagJoinAck      = 60   // join handshake: admitted rank -> root
)

// layerTag is the tag of SC-OBR's reduce of layer (or bucket) l.
func layerTag(l int) int { return tagLayerReduce + 4*l }

// runState is the shared state of one Run: everything the per-rank
// procs touch lives here (the simulator is cooperatively scheduled, so
// no locking is needed).
type runState struct {
	cfg     *Config
	cluster *topology.Cluster
	world   *mpi.World
	comm    *mpi.Comm
	red     coll.Reducer
	ring    *coll.Ring // CNTKLike's host-side allreduce; nil otherwise
	readers []*data.Reader
	wl      []*workload
	layout  *layout // what every rank's workload points at in timing mode; nil in real mode
	phases  []Phases
	losses  []float32
	sgds    []*solver.SGD

	// psScratch is the parameter server's gradient receive buffer,
	// allocated once for the whole run.
	psScratch *gpu.Buffer

	// plans holds the run's iteration plans by role (see buildPlans),
	// built once before the ranks spawn and never rebuilt;
	// graphs[rank][role] is the rank's instance of a plan, bound the first
	// time the rank plays the role and kept across iterations and across
	// rebuild() (see runState.graph). lbl interns the node labels the
	// plans share.
	plans  [2]*sched.Plan
	graphs [][2]*sched.Graph
	lbl    *labelTable

	accuracies  []float64
	testPass    *sched.Plan // the root's testing phase (real mode)
	testCorrect float64     // its accuracy so far
	snapshots   []string
	snapIters   []int // 0-based iteration of each entry in snapshots
	fileErr     error

	// Membership and recovery state (see recovery.go). The plane always
	// exists; a run that cannot trip never hears from it.
	k            *sim.Kernel
	ft           *fault.Plane
	dataSrc      data.Source
	ranksLive    int
	doneAt       sim.Time
	restartIter  int
	lastGoodIter int
	epoch        int // recovery epochs, for reader proc naming

	// Elastic-membership state (see recovery.go). growEpoch is the
	// epoch whose rebuild admitted joiners (-1 = none yet);
	// catchupSeen[rank] is the last epoch rank completed the catch-up
	// protocol for. iterEWMA/slowStreak feed the straggler-eviction
	// policy; ewmaScratch is its preallocated median buffer.
	growEpoch    int
	lastAdmitted []int
	catchupSeen  []int
	catchupHist  []float32 // root momentum packed for the catch-up bcast
	// catchupPlans are the catch-up protocol's plans by role, catchups
	// each rank's instances (see catchupGraph); acked counts the admitted
	// ranks whose acks the root has received or skipped.
	catchupPlans [2]*sched.Plan
	catchups     [][2]*sched.Graph
	acked        int
	iterEWMA     []float64
	slowStreak   []int
	ewmaScratch  []float64

	// Integrity state (nil/zero when the plane is off; see
	// integrity.go).
	integ           *IntegrityReport
	lastGoodParams  []float32 // root params after the last healthy Step
	lastGoodHistory []float32 // root momentum to match
	lossEWMA        float64   // divergence baselines (0 = unseeded)
	normEWMA        float64
	integTries      map[int]int  // per-iteration watchdog trip counts
	quarantined     map[int]bool // iterations condemned past their retries
	integRetry      bool         // current revocation is a watchdog trip
	integIter       int          // iteration the watchdog tripped on
	integTripAt     sim.Time     // trip time, for the rollback span
}

// updateFLOPs is the arithmetic cost of one SGD update over n
// parameters.
func updateFLOPs(n int) float64 { return solver.UpdateFLOPs(n) }

// Run executes one training configuration and reports its results.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run, returning the run's state too. Each of before is handed
// the kernel just before it runs: a test schedules its probes there.
func run(cfg Config, before ...func(*sim.Kernel)) (*Result, *runState, error) {
	if err := cfg.validateAndDefault(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}

	k := sim.New()
	params := topology.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	cluster := topology.New(k, "run", cfg.Nodes, cfg.GPUsPerNode, params)

	workers := cfg.workers()
	localBatch := cfg.localBatch(workers)

	// Device-memory check: parameters + gradients + double activation
	// footprint + input batch must fit (the missing points of
	// Figure 8).
	if err := checkMemory(cfg, localBatch); err != nil {
		return nil, nil, err
	}

	st := &runState{cfg: &cfg, cluster: cluster, k: k}
	st.losses = make([]float32, 0, cfg.Iterations)
	st.world = mpi.NewWorld(cluster, cfg.GPUs)
	st.setComm(st.world.WorldComm())

	// Every run drives the world's fault plane and the membership state
	// it keeps, and every rank runs the one loop that listens to it
	// (rankLoop). A run that cannot trip keeps the plane's quantum at
	// sim.Never, so its waits carry no deadline and nothing ever consults
	// the plane.
	pl := st.world.Fault
	st.ft = pl
	st.ranksLive = cfg.GPUs
	st.lastGoodIter = cfg.StartIteration - 1
	st.growEpoch = -1
	st.catchupSeen = make([]int, cfg.GPUs)
	st.iterEWMA = make([]float64, cfg.GPUs)
	st.slowStreak = make([]int, cfg.GPUs)
	st.ewmaScratch = make([]float64, 0, cfg.GPUs)
	pl.SetRoot(st.rootRank())
	canTrip := len(cfg.Faults) > 0 || cfg.Integrity != IntegrityOff || cfg.EvictFactor > 0
	if canTrip {
		pl.SetQuantum(cfg.FaultTimeout)
	}
	cluster.SetLinkFault(pl.LinkFactor)
	if cfg.MaxVirtualTime > 0 {
		k.SetDeadline(sim.Time(cfg.MaxVirtualTime))
	}
	if cfg.Integrity != IntegrityOff {
		st.integ = &IntegrityReport{Mode: cfg.Integrity}
		st.world.Integrity = &mpi.Integrity{
			Mode:        cfg.Integrity.mpiMode(),
			RetryBudget: cfg.RetransmitBudget,
			WireCorrupt: pl.WireCorrupt,
		}
	}
	st.phases = make([]Phases, cfg.GPUs)
	if cfg.RealNet == nil {
		st.layout = newLayout(&cfg, false)
	}
	for i := 0; i < cfg.GPUs; i++ {
		if cfg.Design == ParamServer && i == 0 {
			st.wl = append(st.wl, st.newWorkload(0)) // server holds buffers only
			continue
		}
		st.wl = append(st.wl, st.newWorkload(localBatch))
	}
	if cfg.Design == ParamServer {
		st.psScratch = gpu.NewBuffer(st.wl[0].packedGrads.Bytes)
	}
	if cfg.RealNet != nil {
		policy, err := buildPolicy(&cfg)
		if err != nil {
			return nil, nil, err
		}
		st.sgds = make([]*solver.SGD, cfg.GPUs)
		for i := range st.sgds {
			st.sgds[i] = solver.New(policy, cfg.Momentum, cfg.WeightDecay)
		}
		if cfg.ResumeFrom != "" {
			if err := st.resume(cfg.ResumeFrom); err != nil {
				return nil, nil, err
			}
		}
		if cfg.Integrity == IntegrityRecover {
			st.initLastGood()
		}
	}
	st.buildReaders(k, localBatch, canTrip)
	st.buildPlans()

	// The plane's events must be armed after the ranks spawn and before
	// time advances, so the run drives the kernel itself.
	loops := make([]rankLoop, cfg.GPUs)
	st.world.SpawnSteps(func(r *mpi.Rank) sim.Stepper {
		loops[r.ID] = rankLoop{st: st, r: r, at: loopNext, it: cfg.StartIteration}
		return &loops[r.ID]
	})
	pl.OnRebuild(st.rebuild)
	pl.Arm(cfg.Faults, &applier{st})
	for _, fn := range before {
		fn(k)
	}
	if err := k.Run(); err != nil {
		return nil, nil, fmt.Errorf("core: simulation failed: %w", err)
	}
	if st.fileErr != nil {
		return nil, nil, fmt.Errorf("core: snapshot failed: %w", st.fileErr)
	}
	if pl.AliveCount() == 0 {
		return nil, nil, fmt.Errorf("%w: all %d ranks failed", ErrUnrecovered, cfg.GPUs)
	}
	for _, r := range st.world.Ranks {
		if n := r.LiveRequests(); n != 0 && pl.Alive(r.ID) {
			return nil, nil, fmt.Errorf("core: rank %d ended the run with %d requests never waited", r.ID, n)
		}
	}

	// The run ends when the last rank finishes, not when the kernel
	// drains: elastic readers outlive the last rank by design.
	total := st.doneAt
	res := &Result{
		Design:        cfg.Design.String(),
		Model:         cfg.Spec.Name,
		GPUs:          cfg.GPUs,
		GlobalBatch:   cfg.GlobalBatch,
		LocalBatch:    localBatch,
		Iterations:    cfg.Iterations,
		Source:        cfg.Source.String(),
		ReduceAlg:     st.red.Name(),
		TotalTime:     total,
		Phases:        st.phases[0],
		Losses:        st.losses,
		Accuracies:    st.accuracies,
		SnapshotFiles: st.snapshots,
		Resumes:       k.Resumes(),
	}
	if canTrip {
		// A copy: the plane's own would pin the plane, kernel and world.
		rep := *pl.Report()
		res.Fault = &rep
	}
	if st.integ != nil {
		if mi := st.world.Integrity; mi != nil {
			st.integ.Verified = mi.Verified
			st.integ.Detected = mi.Detected
			st.integ.Retransmitted = mi.Retransmits
			st.integ.Escalations = mi.Escalations
		}
		res.Integrity = st.integ
	}
	samples := float64(cfg.Iterations-cfg.StartIteration) * float64(localBatch) * float64(workers)
	if total > 0 {
		res.SamplesPerSec = samples / total.Seconds()
		res.HCAUtilization, res.PCIeUtilization = linkUtilization(cluster, cfg.GPUs, total)
	}
	if cfg.RealNet != nil && cfg.CaptureFinalParams {
		root := st.wl[st.rootRank()]
		root.packParams()
		res.FinalParams = append([]float32(nil), root.packedParams.Data...)
	}
	return res, st, nil
}

// rootRank is the world rank of the solver that applies updates: the
// training comm's group rank 0 (which moves when a shrink removes the
// old root), except under the parameter-server design, whose rank 0
// is the server.
func (st *runState) rootRank() int {
	if st.cfg.Design == ParamServer {
		return 0
	}
	return st.comm.WorldRank(0)
}

// isRoot reports whether r is the updating solver (see rootRank).
func (st *runState) isRoot(r *mpi.Rank) bool { return r.ID == st.rootRank() }

// linkUtilization computes the mean busy fraction of the HCAs of the
// nodes hosting ranks, and of the PCIe links of the rank-occupied
// GPUs, over the run (averaging both directions).
func linkUtilization(cluster *topology.Cluster, ranks int, total sim.Time) (hca, pcie float64) {
	if total <= 0 {
		return 0, 0
	}
	nodesUsed := (ranks + cluster.GPUsPerNode() - 1) / cluster.GPUsPerNode()
	var hcaBusy sim.Duration
	for n := 0; n < nodesUsed; n++ {
		hcaBusy += cluster.Nodes[n].HCA.BusyTotal()
	}
	hca = float64(hcaBusy) / float64(2*sim.Duration(nodesUsed)*total)
	var pcieBusy sim.Duration
	for r := 0; r < ranks; r++ {
		d := cluster.DeviceForRank(r)
		pcieBusy += cluster.Nodes[d.Node].PCIe[d.Local].BusyTotal()
	}
	pcie = float64(pcieBusy) / float64(2*sim.Duration(ranks)*total)
	return hca, pcie
}

// deviceMemory is one GPU's memory: a K-80-era GK210 exposes 12 GB.
const deviceMemory = 12 << 30

// checkMemory validates the per-GPU footprint against device memory.
func checkMemory(cfg Config, localBatch int) error {
	need := perRankMemory(&cfg, localBatch)
	if need > deviceMemory {
		return &gpu.ErrOutOfMemory{Dev: topology.DeviceID{}, Requested: need, Free: deviceMemory}
	}
	return nil
}

// perRankMemory estimates one solver's device footprint: parameters,
// gradients, activations and their gradients, and the input batch.
func perRankMemory(cfg *Config, localBatch int) int64 {
	params := cfg.Spec.ParamBytes()
	acts := int64(cfg.Spec.ActivationElems()) * 4 * 2 * int64(localBatch)
	input := int64(cfg.Spec.Input.Elems()) * 4 * int64(localBatch)
	return 2*params + acts + input
}

// readerQueueDepth is each solver's prefetch depth: the batches a
// reader may load ahead of its solver.
const readerQueueDepth = 2

// buildReaders wires the data plane: one reader per solver (Figure 3)
// for the distributed designs, one shared reader for multi-threaded
// Caffe, and none for the server rank of the PS design.
func (st *runState) buildReaders(k *sim.Kernel, localBatch int, elastic bool) {
	cfg := st.cfg
	var src data.Source
	switch cfg.Source {
	case MemorySource:
		src = data.InMemory{}
	case LMDBSource:
		readers := cfg.GPUs
		if cfg.Design == CaffeMT {
			readers = 1
		}
		src = data.NewLMDBSource(k, readers)
	case ImageDataSource:
		src = data.NewImageDataSource(pfs.Default(k))
	}

	st.readers = make([]*data.Reader, cfg.GPUs)
	iters := cfg.Iterations - cfg.StartIteration
	if cfg.Design == CaffeMT {
		// One reader thread feeds every solver through the shared
		// queue: it loads the whole global batch, then releases one
		// token per solver.
		shared := data.StartReader(k, "reader", src, localBatch*cfg.GPUs, cfg.Spec.PerSampleBytes, iters, cfg.GPUs, readerQueueDepth*cfg.GPUs)
		for i := range st.readers {
			st.readers[i] = shared
		}
		return
	}
	st.dataSrc = src
	names := sim.Names("reader", cfg.GPUs, "")
	block := make([]rankReader, cfg.GPUs)
	for i := range block {
		b := &block[i]
		rs, batches := src, iters
		switch {
		case elastic:
			// Runs that can trip use elastic readers: the consumption
			// count is unknowable up front (rollbacks re-read
			// iterations, shrinks change the batch size), so readers
			// prefetch forever, bounded by the queue, until stopped.
			// Config validation restricts faults to the per-rank-reader
			// designs.
			b.stalled = stalledSource{inner: src, pl: st.ft, rank: i}
			rs, batches = &b.stalled, -1
		case cfg.Design == ParamServer && i == 0:
			continue // the server does not train
		}
		b.Start(k, names[i], rs, localBatch, cfg.Spec.PerSampleBytes, batches, 1, readerQueueDepth)
		st.readers[i] = &b.Reader
	}
}

// rankReader is one solver's data reader beside the stall-aware source
// it reads through in a run that can trip: a run's readers, and each
// elastic rebuild's, are made as one block of these, not two objects a
// rank.
type rankReader struct {
	data.Reader
	stalled stalledSource
}

// workerIndex returns this rank's position among training workers —
// its group rank in the (possibly shrunken) training comm, so a
// recovery automatically re-shards the batch across survivors.
func (st *runState) workerIndex(r *mpi.Rank) int {
	if st.cfg.Design == ParamServer {
		return r.ID - 1
	}
	return st.comm.GroupRank(r.ID)
}

// workerCount returns the number of training workers.
func (st *runState) workerCount() int {
	if st.cfg.Design == ParamServer {
		return st.cfg.GPUs - 1
	}
	return st.comm.Size()
}
