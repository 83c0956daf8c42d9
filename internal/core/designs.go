package core

import (
	"strconv"

	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Each training design is a plan-construction policy: one iteration
// becomes a sched.Plan whose edges encode where communication is
// posted and waited relative to per-layer compute — the only axis
// along which the paper's designs differ. The node actions reuse the
// runState/workload context; the scheduler supplies ordering, waiting,
// and trace emission.

// A design has one plan per role: the ranks of a role run the same
// nodes in the same order. The data-parallel designs have the two roles
// below; ModelParallel has one per pipeline stage and, when there are
// more ranks than layers, one more for the ranks left idle (see
// runState.role).
const (
	roleRoot   = iota // the updating solver (the PS design's server)
	roleWorker        // everyone else
)

// buildPlans constructs the run's iteration plans, one per role under
// the configured design, and the table of per-rank instances. run()
// calls it once, before the ranks spawn; every rank of a role then
// executes the same plan through its own sched.Graph. A plan therefore
// captures only the role: the actions find the rank's workload, reader
// and solver through x.R.ID, the communicator, reducer and worker count
// through st, and the iteration through x.It — all at execution time,
// so the plan outlives every rebuild().
func (st *runState) buildPlans() {
	cfg := st.cfg
	st.lbl = newLabelTable(len(cfg.Spec.Layers), len(st.wl[0].buckets))
	roles := 2
	if cfg.Design == ModelParallel {
		st.mpStages = mpPartition(cfg, cfg.GPUs)
		roles = len(st.mpStages)
		if cfg.GPUs > roles {
			roles++ // more ranks than layers: the surplus ranks idle
		}
	}
	st.plans = make([]*sched.Plan, roles)
	for role := range st.plans {
		st.plans[role] = st.buildPlan(role)
	}
	bound := make([]*sched.Graph, cfg.GPUs*roles)
	st.graphs = make([][]*sched.Graph, cfg.GPUs)
	for i := range st.graphs {
		st.graphs[i] = bound[i*roles : (i+1)*roles]
	}
}

// buildPlan builds and seals the plan of one role.
func (st *runState) buildPlan(role int) *sched.Plan {
	p := sched.NewPlan()
	root := role == roleRoot
	switch st.cfg.Design {
	case SCB, CaffeMT:
		st.buildSCB(p, root)
	case SCOB:
		st.buildSCOB(p, root)
	case SCOBR, SCOBRF:
		st.buildSCOBR(p, root)
	case CNTKLike:
		st.buildCNTK(p, root)
	case ParamServer:
		st.buildPS(p, root)
	case ModelParallel:
		st.buildMP(p, role)
	}
	p.Seal()
	return p
}

// role is the role rank r plays this iteration. A data-parallel rank's
// changes only when a shrink moves the root to it (or a grow moves it
// away); a pipeline stage is a rank's for the whole run.
func (st *runState) role(r *mpi.Rank) int {
	switch {
	case st.cfg.Design == ModelParallel:
		return min(r.ID, len(st.plans)-1)
	case st.isRoot(r):
		return roleRoot
	}
	return roleWorker
}

// graph returns the instance rank r executes this iteration: its own
// binding of the plan of the role it currently plays. A rank binds a
// role's plan the first time it plays the role and keeps the instance
// for the rest of the run; only a rank that becomes the root after a
// shrink (or stops being it after a grow) ever holds two.
func (st *runState) graph(r *mpi.Rank) *sched.Graph {
	role := st.role(r)
	g := &st.graphs[r.ID][role]
	if *g == nil {
		*g = st.plans[role].Bind(r)
	}
	return *g
}

// buildSCB is the S-Caffe Basic policy (Section 4.1): blocking
// CUDA-aware broadcast of the packed parameters, sequential
// forward/backward, blocking reduce of the packed gradients. CaffeMT
// shares this plan (its transfers resolve to intra-node IPC and its
// data plane is the single shared reader).
func (st *runState) buildSCB(p *sched.Plan, root bool) {
	st.addDataWait(p)
	p.Add(0, sched.Pack, "propagation", "pack-params", st.realOnly(func(x *sched.Ctx) {
		if root {
			st.wl[x.R.ID].packParams()
		}
	}))
	p.Add(0, sched.WaitBcast, "propagation", "bcast-params", func(x *sched.Ctx) {
		x.R.Bcast(st.comm, 0, st.wl[x.R.ID].packedParams, topology.ModeAuto)
	})
	p.Add(0, sched.Unpack, "propagation", "unpack-params", st.realOnly(func(x *sched.Ctx) {
		if !root {
			st.wl[x.R.ID].unpackParams()
		}
	}))
	st.addForward(p)
	st.addBackward(p)
	p.Add(0, sched.Reduce, "aggregation", "reduce-grads", func(x *sched.Ctx) {
		st.red.Reduce(x.R, st.wl[x.R.ID].packedGrads, tagPackedReduce)
	})
	if root {
		st.addUpdate(p)
	}
}

// buildSCOB is SC-B plus the overlapped multi-stage data propagation
// (Section 4.2): every layer's Ibcast is posted up front and each wait
// sits immediately before the layer that consumes the data.
func (st *runState) buildSCOB(p *sched.Plan, root bool) {
	st.addDataWait(p)
	slots, drain := st.addPostPropagation(p, root)
	st.addOverlappedForward(p, slots, root)
	st.addBackward(p)
	p.Add(0, sched.Reduce, "aggregation", "reduce-grads", func(x *sched.Ctx) {
		st.red.Reduce(x.R, st.wl[x.R.ID].packedGrads, tagPackedReduce)
	})
	if root {
		st.addDrainSends(p, drain)
		st.addUpdate(p)
	}
}

// buildSCOBR is the full co-design (Section 4.3): overlapped
// propagation plus helper-lane gradient aggregation. The backward
// kernels run on a helper lane; each layer's (or bucket's) reduce node
// depends on the helper node that produced its gradients, so layer n's
// reduce overlaps layer n−1's backward compute. SC-OBR-F shares this
// builder — normalization guarantees it always has buckets.
func (st *runState) buildSCOBR(p *sched.Plan, root bool) {
	layers := st.cfg.Spec.Layers
	st.addDataWait(p)
	slots, drain := st.addPostPropagation(p, root)
	st.addOverlappedForward(p, slots, root)

	begin := p.Add(0, sched.Generic, "", "begin-backward", st.realOnly(func(x *sched.Ctx) { st.wl[x.R.ID].beginBackward() }))
	helper := p.Lane("helper")
	bwd := make([]*sched.Node, len(layers))
	for l := len(layers) - 1; l >= 0; l-- {
		bwd[l] = st.addBackwardLayer(p, helper, l)
	}
	bwd[len(layers)-1].After(begin)

	// Every workload of a run has the same bucket layout (it follows
	// from the spec); only the buffers are per rank.
	if buckets := st.wl[0].buckets; len(buckets) > 0 {
		// Fused aggregation: a bucket's gradients are complete once its
		// lowest layer's backward finishes.
		for bi, b := range buckets {
			bi := bi
			p.Add(0, sched.Generic, "", st.lbl.gradsReadyB[bi], nil).
				After(bwd[b.lo]).WaitingIn("backward")
			p.Add(0, sched.Reduce, "aggregation", st.lbl.reduceB[bi], func(x *sched.Ctx) {
				st.red.Reduce(x.R, st.wl[x.R.ID].buckets[bi].buf, tagLayerReduce+4*bi)
			})
		}
	} else {
		for l := len(layers) - 1; l >= 0; l-- {
			if layers[l].ParamElems == 0 {
				continue
			}
			l := l
			p.Add(0, sched.Generic, "", st.lbl.gradsReady[l], nil).
				After(bwd[l]).WaitingIn("backward")
			p.Add(0, sched.Reduce, "aggregation", st.lbl.reduce[l], func(x *sched.Ctx) {
				st.red.Reduce(x.R, st.wl[x.R.ID].layerGrad[l], tagLayerReduce+4*l)
			})
		}
	}
	p.Add(0, sched.Generic, "", "join-backward", nil).After(bwd[0]).WaitingIn("backward")

	if root {
		st.addDrainSends(p, drain)
		st.addUpdate(p)
	}
}

// buildCNTK models an MPI DL framework without CUDA-awareness or
// overlap, but with a competent host-side collective (CNTK's 1-bit-SGD
// lineage used MPI allreduce with its own multi-threaded reduction):
// gradients are staged to the host, ring-allreduced there, staged
// back, and every rank applies the update locally — the design axes of
// Table 1.
func (st *runState) buildCNTK(p *sched.Plan, root bool) {
	st.addDataWait(p)
	st.addForward(p)
	st.addBackward(p)
	p.Add(0, sched.Reduce, "aggregation", "host-allreduce", func(x *sched.Ctx) {
		grads, dev := st.wl[x.R.ID].packedGrads, x.R.Dev.ID
		host := topology.HostOf(dev.Node)
		_, end := st.cluster.Transfer(x.P.Now(), dev, host, grads.Bytes, topology.ModeAuto)
		x.P.WaitUntil(end)
		st.ring.Allreduce(x.R, grads, tagPackedReduce)
		_, end = st.cluster.Transfer(x.P.Now(), host, dev, grads.Bytes, topology.ModeAuto)
		x.P.WaitUntil(end)
	})
	st.addLocalUpdate(p, root)
}

// buildPS models the Inspur-style parameter server: rank 0 (the root
// role) serves parameters and aggregates gradients sequentially; ranks
// 1..N−1 train. The single server's links and reduce kernels serialize
// all workers — the scalability argument of Section 3.1.
func (st *runState) buildPS(p *sched.Plan, server bool) {
	workers := st.cfg.GPUs - 1
	if server {
		p.Add(0, sched.PostBcast, "propagation", "serve-params", func(x *sched.Ctx) {
			for wk := 1; wk <= workers; wk++ {
				x.R.Send(st.comm, wk, tagPS, st.wl[x.R.ID].packedParams, topology.ModeAuto)
			}
		})
		p.Add(0, sched.Reduce, "aggregation", "collect-grads", func(x *sched.Ctx) {
			for wk := 1; wk <= workers; wk++ {
				x.R.Recv(st.comm, wk, tagPS+1, st.psScratch)
				_, end := x.R.Dev.LaunchReduce(x.P.Now(), st.psScratch.Bytes)
				x.P.WaitUntil(end)
			}
		})
		st.addUpdate(p)
		return
	}
	st.addDataWait(p)
	p.Add(0, sched.WaitBcast, "propagation", "recv-params", func(x *sched.Ctx) {
		x.R.Recv(st.comm, 0, tagPS, st.wl[x.R.ID].packedParams)
	})
	st.addForward(p)
	st.addBackward(p)
	p.Add(0, sched.Reduce, "aggregation", "send-grads", func(x *sched.Ctx) {
		x.R.Send(st.comm, 0, tagPS+1, st.wl[x.R.ID].packedGrads, topology.ModeAuto)
	})
}

// --- shared node factories ------------------------------------------------

// realOnly is fn in a real-compute run and nil in a timing run, for the
// actions that only move real parameter or activation data and have
// nothing to do without a net. It matters because of who runs a node: an
// action may block, so the lane takes it to its goroutine, while a node
// without one — a pure synchronization point — never leaves the event
// loop. The spans are the same either way: these actions take no
// virtual time. What the workload methods these actions call allocate
// is measured by TestSteadyStateIterationAllocBudget's real-mode rows.
func (st *runState) realOnly(fn func(*sched.Ctx)) func(*sched.Ctx) {
	if st.cfg.RealNet == nil {
		return nil
	}
	return fn
}

// labelTable interns the per-layer (and per-bucket) node labels once
// per run, before the plans that use them are built.
type labelTable struct {
	fwd, bwd, waitBcast, bcastWire, gradsReady, reduce []string
	gradsReadyB, reduceB                               []string
}

// newLabelTable builds the labels of an n-layer model with nb gradient
// buckets.
func newLabelTable(n, nb int) *labelTable {
	t := &labelTable{
		fwd: make([]string, n), bwd: make([]string, n),
		waitBcast: make([]string, n), bcastWire: make([]string, n),
		gradsReady: make([]string, n), reduce: make([]string, n),
		gradsReadyB: make([]string, nb), reduceB: make([]string, nb),
	}
	for l := 0; l < n; l++ {
		d := strconv.Itoa(l)
		t.fwd[l] = "fwd:" + d
		t.bwd[l] = "bwd:" + d
		t.waitBcast[l] = "wait-bcast:" + d
		t.bcastWire[l] = "bcast:" + d
		t.gradsReady[l] = "grads-ready:" + d
		t.reduce[l] = "reduce:" + d
	}
	for b := 0; b < nb; b++ {
		d := strconv.Itoa(b)
		t.gradsReadyB[b] = "grads-ready:b" + d
		t.reduceB[b] = "reduce:b" + d
	}
	return t
}

// addDataWait starts an iteration: the framework's fixed per-iteration
// overhead (untraced, as in the original accounting), then the blocking
// read from this rank's reader queue plus the real-mode batch load.
func (st *runState) addDataWait(p *sched.Plan) {
	p.AddTimed(0, sched.Generic, "", "iter-overhead", func(x *sched.Ctx) sim.Time {
		return x.P.Now() + st.cluster.P.IterOverhead
	})
	p.Add(0, sched.DataWait, "data", "data-wait", func(x *sched.Ctx) {
		if rd := st.readers[x.R.ID]; rd != nil {
			rd.Next(x.P)
		}
		if w := st.wl[x.R.ID]; w.real() {
			rankOffset := st.workerIndex(x.R) * w.localBatch
			w.loadBatch(st.cfg.Dataset, x.It, w.localBatch*st.workerCount(), rankOffset)
		}
	})
}

// addPostPropagation posts every parameter layer's Ibcast up front
// (Figure 5's multi-stage on-demand design). It returns per-layer
// slots (for the consuming layers' waits) and a drain slot holding all
// requests (for the root's send completion). Each request is waited
// exactly where it is consumed — the root gates its update on the drain
// slot, non-roots gate each layer's forward on that layer's slot — and
// only a slot some node of the plan is gated on keeps what is put into
// it. When tracing, each request's completion hook records the
// wire-level span of the offloaded broadcast — the overlap Summary
// measures.
func (st *runState) addPostPropagation(p *sched.Plan, root bool) (slots []*sched.Slot, drain *sched.Slot) {
	slots = make([]*sched.Slot, len(st.cfg.Spec.Layers))
	for l := range slots {
		slots[l] = sched.NewSlot()
	}
	drain = sched.NewSlot()
	p.Add(0, sched.PostBcast, "", "post-bcasts", func(x *sched.Ctx) {
		w := st.wl[x.R.ID]
		if root {
			w.packParams()
		}
		for l, buf := range w.layerParam {
			if buf == nil {
				continue
			}
			req := x.R.Ibcast(st.comm, 0, buf, topology.ModeAuto)
			x.Put(slots[l], req)
			x.Put(drain, req)
			if st.cfg.Trace != nil {
				post, label, r := x.P.Now(), st.lbl.bcastWire[l], x.R
				req.OnComplete(func() {
					// The hook runs in kernel context at completion
					// time, so the current virtual time IS the
					// completion time — and unlike req.CompletedAt()
					// it stays correct after the pooled request is
					// recycled by a later operation.
					st.cfg.Trace.AddNode(r.ID, "bcast-wire", label, post, r.Now())
				})
			}
		}
	})
	return slots, drain
}

// addOverlappedForward places each layer's broadcast wait immediately
// before the layer that consumes the data — too early wastes overlap,
// too late stalls compute (Section 4.2).
func (st *runState) addOverlappedForward(p *sched.Plan, slots []*sched.Slot, root bool) {
	layers := st.cfg.Spec.Layers
	p.Add(0, sched.Generic, "", "begin-forward", st.realOnly(func(x *sched.Ctx) { st.wl[x.R.ID].beginForward() }))
	for l := range layers {
		if layers[l].ParamElems != 0 && !root {
			l := l
			p.Add(0, sched.WaitBcast, "propagation", st.lbl.waitBcast[l], st.realOnly(func(x *sched.Ctx) {
				st.wl[x.R.ID].unpackLayerParams(l)
			})).Gated(slots[l])
		}
		st.addForwardLayer(p, l)
	}
}

// addForward runs the full forward pass sequentially.
func (st *runState) addForward(p *sched.Plan) {
	p.Add(0, sched.Generic, "", "begin-forward", st.realOnly(func(x *sched.Ctx) { st.wl[x.R.ID].beginForward() }))
	for l := range st.cfg.Spec.Layers {
		st.addForwardLayer(p, l)
	}
}

// addForwardLayer runs one layer's forward kernel (and real math).
func (st *runState) addForwardLayer(p *sched.Plan, l int) *sched.Node {
	return p.AddTimed(0, sched.ComputeForward, "forward", st.lbl.fwd[l], func(x *sched.Ctx) sim.Time {
		w := st.wl[x.R.ID]
		flops := st.cfg.Spec.Layers[l].FwdFLOPs * float64(w.localBatch)
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), flops)
		w.forwardLayer(l)
		return end
	})
}

// addBackward runs the full backward pass serially on lane 0 (SC-B /
// SC-OB / the baselines).
func (st *runState) addBackward(p *sched.Plan) {
	p.Add(0, sched.Generic, "", "begin-backward", st.realOnly(func(x *sched.Ctx) { st.wl[x.R.ID].beginBackward() }))
	for l := len(st.cfg.Spec.Layers) - 1; l >= 0; l-- {
		st.addBackwardLayer(p, 0, l)
	}
}

// addBackwardLayer runs one layer's backward kernel (and real math) on
// the given lane.
func (st *runState) addBackwardLayer(p *sched.Plan, lane, l int) *sched.Node {
	return p.AddTimed(lane, sched.ComputeBackward, "backward", st.lbl.bwd[l], func(x *sched.Ctx) sim.Time {
		w := st.wl[x.R.ID]
		flops := st.cfg.Spec.Layers[l].BwdFLOPs * float64(w.localBatch)
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), flops)
		w.backwardLayer(l)
		return end
	})
}

// addDrainSends completes the root's outstanding broadcast sends; the
// root must not modify parameters (ApplyUpdate) while the network may
// still be reading them.
func (st *runState) addDrainSends(p *sched.Plan, drain *sched.Slot) {
	p.Add(0, sched.DrainSends, "propagation", "drain-bcasts", nil).Gated(drain)
}

// addUpdate performs the root solver's ApplyUpdate — unpack the
// reduced gradients, run the SGD arithmetic (scaled to average the
// per-solver mean gradients), charge the kernel time — followed by the
// untimed bookkeeping (loss recording, testing, snapshotting).
func (st *runState) addUpdate(p *sched.Plan) {
	p.AddTimed(0, sched.Update, "update", "update", func(x *sched.Ctx) sim.Time {
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), updateFLOPs(st.cfg.Spec.TotalParams()))
		if w := st.wl[x.R.ID]; w.real() {
			w.unpackGrads()
			// The health gate runs before the step, so poisoned
			// gradients never reach the parameters (recover mode
			// unwinds here into a micro-rollback); a quarantined
			// batch skips its update entirely.
			if st.integrityCheck(w, x.It) {
				st.sgds[x.R.ID].Step(w.net, x.It, 1/float32(st.workerCount()))
				st.noteLastGood(w)
			}
		}
		return end
	})
	p.Add(0, sched.Generic, "", "post-update", func(x *sched.Ctx) {
		w := st.wl[x.R.ID]
		if w.real() {
			st.losses = append(st.losses, w.loss())
		}
		st.maybeEvaluate(x.R, w, x.It)
		st.noteCompleted(x.It)
		st.membershipTick(x.R)
	})
}

// addLocalUpdate applies the update on this rank (designs whose
// replicas all hold the averaged gradient); only the root records
// losses and runs the testing phase.
func (st *runState) addLocalUpdate(p *sched.Plan, root bool) {
	p.AddTimed(0, sched.Update, "update", "local-update", func(x *sched.Ctx) sim.Time {
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), updateFLOPs(st.cfg.Spec.TotalParams()))
		if w := st.wl[x.R.ID]; w.real() {
			w.unpackGrads()
			st.sgds[x.R.ID].Step(w.net, x.It, 1/float32(st.workerCount()))
		}
		return end
	})
	// (No health gate here: integrity in real-compute mode is
	// restricted to the root-broadcast designs, whose parameter
	// broadcast is what heals replicas after a rollback.)
	p.Add(0, sched.Generic, "", "post-update", func(x *sched.Ctx) {
		if root {
			w := st.wl[x.R.ID]
			if w.real() {
				st.losses = append(st.losses, w.loss())
			}
			st.maybeEvaluate(x.R, w, x.It)
		}
		st.noteCompleted(x.It)
		st.membershipTick(x.R)
	})
}

// nodeSink routes scheduler spans into the run's accounting: lane-0
// spans accumulate into the rank's Phases (preserving the original
// semantics of "time the main thread spends blocked per phase") and
// every span lands on the trace recorder with its node label.
type nodeSink struct {
	st   *runState
	rank int
	ph   *Phases
}

func (s *nodeSink) NodeSpan(lane int, kind sched.Kind, phase, label string, start, end sim.Time) {
	if lane == 0 {
		s.ph.add(phase, end-start)
	}
	s.st.cfg.Trace.AddNode(s.rank, phase, label, start, end)
}
