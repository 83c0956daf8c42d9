package core

import (
	"scaffe/internal/gpu"
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
// and trace emission. No node parks: a blocking call is its post and its
// await, spliced in as a fragment so the node's span is the call's.

// A design has one plan per role: the ranks of a role run the same
// nodes in the same order. Every design has the two roles below.
const (
	roleRoot   = iota // the updating solver (the PS design's server)
	roleWorker        // everyone else
)

// buildPlans constructs the run's two iteration plans, one per role
// under the configured design, and the table of per-rank instances. run()
// calls it once, before the ranks spawn; every rank of a role then
// executes the same plan through its own sched.Graph. A plan therefore
// captures only the role: the actions find the rank's workload, reader
// and solver through x.R.ID, the communicator, reducer and worker count
// through st, and the iteration through x.It — all at execution time,
// so the plan outlives every rebuild().
func (st *runState) buildPlans() {
	cfg := st.cfg
	st.lbl = newLabelTable(len(cfg.Spec.Layers), len(st.wl[0].buckets))
	if cfg.RealNet != nil && cfg.TestInterval > 0 {
		st.testPass = st.buildTestPass()
	}
	for role := range st.plans {
		st.plans[role] = st.buildPlan(role == roleRoot)
	}
	st.graphs = make([][2]*sched.Graph, cfg.GPUs)
}

// buildPlan builds and seals the plan of one role.
func (st *runState) buildPlan(root bool) *sched.Plan {
	p := sched.NewPlan()
	switch st.cfg.Design {
	case SCB, CaffeMT:
		st.buildSCB(p, root)
	case SCOB:
		st.buildSCOB(p, root)
	case SCOBR:
		st.buildSCOBR(p, root)
	case CNTKLike:
		st.buildCNTK(p, root)
	case ParamServer:
		st.buildPS(p, root)
	}
	p.Seal()
	return p
}

// role is the role rank r plays this iteration. It changes only when a
// shrink moves the root to r (or a grow moves it away).
func (st *runState) role(r *mpi.Rank) int {
	if st.isRoot(r) {
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
	p.Add(0, sched.Pack, "propagation", "pack-params", func(x *sched.Ctx) {
		if root {
			st.wl[x.R.ID].packParams()
		}
	})
	st.addBlocking(p, sched.WaitBcast, "propagation", "bcast-params", func(x *sched.Ctx) *mpi.Request {
		return x.R.Ibcast(st.comm, 0, st.wl[x.R.ID].packedParams, topology.ModeAuto)
	})
	p.Add(0, sched.Unpack, "propagation", "unpack-params", func(x *sched.Ctx) {
		if !root {
			st.wl[x.R.ID].unpackParams()
		}
	})
	st.addForward(p)
	st.addBackward(p)
	st.addReduce(p, "reduce-grads", tagPackedReduce, func(w *workload) *gpu.Buffer { return w.packedGrads })
	if root {
		st.addUpdate(p)
	}
}

// buildSCOB is SC-B plus the overlapped multi-stage data propagation
// (Section 4.2): every layer's Ibcast is posted up front and each wait
// sits immediately before the layer that consumes the data.
func (st *runState) buildSCOB(p *sched.Plan, root bool) {
	st.addDataWait(p)
	st.addPostPropagation(p, root)
	st.addOverlappedForward(p, root)
	st.addBackward(p)
	st.addReduce(p, "reduce-grads", tagPackedReduce, func(w *workload) *gpu.Buffer { return w.packedGrads })
	if root {
		st.addDrainSends(p)
		st.addUpdate(p)
	}
}

// buildSCOBR is the full co-design (Section 4.3): overlapped
// propagation plus helper-lane gradient aggregation. The backward
// kernels run on a helper lane; each layer's (or bucket's) reduce node
// depends on the helper node that produced its gradients, so layer n's
// reduce overlaps layer n−1's backward compute. With Config.BucketBytes
// set, the reduces are per bucket of consecutive layers instead.
func (st *runState) buildSCOBR(p *sched.Plan, root bool) {
	layers := st.cfg.Spec.Layers
	st.addDataWait(p)
	st.addPostPropagation(p, root)
	st.addOverlappedForward(p, root)

	begin := p.Add(0, sched.Generic, "", "begin-backward", func(x *sched.Ctx) { st.wl[x.R.ID].beginBackward() })
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
			p.Add(0, sched.Generic, "", st.lbl.gradsReadyB[bi], nil).
				After(bwd[b.lo]).WaitingIn("backward")
			st.addReduce(p, st.lbl.reduceB[bi], layerTag(bi), func(w *workload) *gpu.Buffer { return w.buckets[bi].buf })
		}
	} else {
		for l := len(layers) - 1; l >= 0; l-- {
			if layers[l].ParamElems == 0 {
				continue
			}
			p.Add(0, sched.Generic, "", st.lbl.gradsReady[l], nil).
				After(bwd[l]).WaitingIn("backward")
			st.addReduce(p, st.lbl.reduce[l], layerTag(l), func(w *workload) *gpu.Buffer { return w.layerGrad[l] })
		}
	}
	p.Add(0, sched.Generic, "", "join-backward", nil).After(bwd[0]).WaitingIn("backward")

	if root {
		st.addDrainSends(p)
		st.addUpdate(p)
	}
}

// buildCNTK models an MPI DL framework without CUDA-awareness or
// overlap, but with a competent host-side collective (CNTK's 1-bit-SGD
// lineage used MPI allreduce with its own multi-threaded reduction):
// gradients are staged to the host, ring-allreduced there, staged
// back, and every rank applies the update locally — the design axes of
// Table 1. The exchange is one node: a fragment of the device-to-host
// copy, the ring's own fragment, and the copy back.
func (st *runState) buildCNTK(p *sched.Plan, root bool) {
	st.addDataWait(p)
	st.addForward(p)
	st.addBackward(p)
	host := sched.NewPlan()
	host.AddTimed(0, sched.Reduce, "", "", func(x *sched.Ctx) sim.Time {
		_, end := st.cluster.Transfer(x.P.Now(), x.R.Dev.ID, topology.HostOf(x.R.Dev.ID.Node), x.Buf.Bytes, topology.ModeAuto)
		return end
	})
	host.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return st.ring.Fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	host.AddTimed(0, sched.Reduce, "", "", func(x *sched.Ctx) sim.Time {
		_, end := st.cluster.Transfer(x.P.Now(), topology.HostOf(x.R.Dev.ID.Node), x.R.Dev.ID, x.Buf.Bytes, topology.ModeAuto)
		return end
	})
	host.Seal()
	p.AddSplice(sched.Reduce, "aggregation", "host-allreduce", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return host, st.wl[x.R.ID].packedGrads, tagPackedReduce
	})
	st.addLocalUpdate(p, root)
}

// buildPS models the Inspur-style parameter server: rank 0 (the root
// role) serves parameters and aggregates gradients sequentially; ranks
// 1..N−1 train. The single server's links and reduce kernels serialize
// all workers — the scalability argument of Section 3.1: each send or
// receive is posted only once the one before it is complete.
func (st *runState) buildPS(p *sched.Plan, server bool) {
	workers := st.cfg.GPUs - 1
	if server {
		serve, collect := sched.NewPlan(), sched.NewPlan()
		for wk := 1; wk <= workers; wk++ {
			st.postAwait(serve, func(x *sched.Ctx) *mpi.Request {
				return x.R.Isend(st.comm, wk, tagPS, st.wl[x.R.ID].packedParams, topology.ModeAuto)
			})
			collect.Add(0, sched.Reduce, "", "", func(x *sched.Ctx) {
				st.wl[x.R.ID].req[0] = x.R.Irecv(st.comm, wk, tagPS+1, st.psScratch)
			})
			collect.AddTimed(0, sched.Reduce, "", "", func(x *sched.Ctx) sim.Time {
				_, end := x.R.Dev.LaunchReduce(x.P.Now(), st.psScratch.Bytes)
				return end
			}).Awaiting(st.awaitReq)
		}
		addFragment(p, sched.PostBcast, "propagation", "serve-params", serve)
		addFragment(p, sched.Reduce, "aggregation", "collect-grads", collect)
		st.addUpdate(p)
		return
	}
	st.addDataWait(p)
	st.addBlocking(p, sched.WaitBcast, "propagation", "recv-params", func(x *sched.Ctx) *mpi.Request {
		return x.R.Irecv(st.comm, 0, tagPS, st.wl[x.R.ID].packedParams)
	})
	st.addForward(p)
	st.addBackward(p)
	st.addBlocking(p, sched.Reduce, "aggregation", "send-grads", func(x *sched.Ctx) *mpi.Request {
		return x.R.Isend(st.comm, 0, tagPS+1, st.wl[x.R.ID].packedGrads, topology.ModeAuto)
	})
}

// --- shared node factories ------------------------------------------------

// addReduce splices in st.red's fragment for the rank's gradients
// grads(w): the reduction runs as steps of lane 0, with the iteration.
func (st *runState) addReduce(p *sched.Plan, label string, tag int, grads func(w *workload) *gpu.Buffer) {
	p.AddSplice(sched.Reduce, "aggregation", label, func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		buf := grads(st.wl[x.R.ID])
		return st.red.Fragment(x.R, buf), buf, tag
	})
}

// addFragment seals frag and appends a node that walks it in its place,
// so the node's span covers the whole walk.
func addFragment(p *sched.Plan, kind sched.Kind, phase, label string, frag *sched.Plan) {
	frag.Seal()
	p.AddSplice(kind, phase, label, func(*sched.Ctx) (*sched.Plan, *gpu.Buffer, int) { return frag, nil, 0 })
}

// addBlocking appends a node that is the blocking call whose operation
// post starts: a fragment of the post and its await.
func (st *runState) addBlocking(p *sched.Plan, kind sched.Kind, phase, label string, post func(*sched.Ctx) *mpi.Request) {
	f := sched.NewPlan()
	st.postAwait(f, post)
	addFragment(p, kind, phase, label, f)
}

// postAwait appends to f the post of an operation, whose request (if
// any) the rank keeps in workload.req, and the node that awaits it.
func (st *runState) postAwait(f *sched.Plan, post func(*sched.Ctx) *mpi.Request) {
	f.Add(0, sched.Generic, "", "", func(x *sched.Ctx) { st.wl[x.R.ID].req[0] = post(x) })
	f.Add(0, sched.Generic, "", "", nil).Awaiting(st.awaitReq)
}

// awaitReq is the request of the rank's blocking operation in flight.
func (st *runState) awaitReq(x *sched.Ctx) []*mpi.Request { return st.wl[x.R.ID].req[:] }

// labelTable interns the per-layer (and per-bucket) node labels once
// per run, before the plans that use them are built.
type labelTable struct {
	fwd, bwd, waitBcast, bcastWire, gradsReady, reduce []string
	gradsReadyB, reduceB                               []string
}

// newLabelTable builds the labels of an n-layer model with nb gradient
// buckets: each family's labels are substrings of one string
// (sim.Names), two allocations a family however many layers it labels.
func newLabelTable(n, nb int) *labelTable {
	return &labelTable{
		fwd: sim.Names("fwd:", n, ""), bwd: sim.Names("bwd:", n, ""),
		waitBcast: sim.Names("wait-bcast:", n, ""), bcastWire: sim.Names("bcast:", n, ""),
		gradsReady: sim.Names("grads-ready:", n, ""), reduce: sim.Names("reduce:", n, ""),
		gradsReadyB: sim.Names("grads-ready:b", nb, ""), reduceB: sim.Names("reduce:b", nb, ""),
	}
}

// addDataWait starts an iteration: the framework's fixed per-iteration
// overhead (untraced, as in the original accounting), then the read from
// this rank's reader queue — again at the reader's next Put while the
// queue is empty — plus the real-mode batch load.
func (st *runState) addDataWait(p *sched.Plan) {
	p.AddTimed(0, sched.Generic, "", "iter-overhead", func(x *sched.Ctx) sim.Time {
		return x.P.Now() + st.cluster.P.IterOverhead
	})
	p.Add(0, sched.DataWait, "data", "data-wait", func(x *sched.Ctx) {
		if rd := st.readers[x.R.ID]; rd != nil && !rd.TryNext(x.P) {
			x.Again()
			return
		}
		if w := st.wl[x.R.ID]; w.real() {
			rankOffset := st.workerIndex(x.R) * w.localBatch
			w.loadBatch(st.cfg.Dataset, x.It, w.localBatch*st.workerCount(), rankOffset)
		}
	})
}

// addPostPropagation posts every parameter layer's Ibcast up front
// (Figure 5's multi-stage on-demand design), keeping the requests in the
// rank's workload (workload.bcast). Each request is waited exactly
// where it is consumed: non-roots await each layer's before its forward,
// the root awaits them all before its update. When tracing, each
// request's completion hook records the wire-level span of the offloaded
// broadcast — the overlap Summary measures.
func (st *runState) addPostPropagation(p *sched.Plan, root bool) {
	p.Add(0, sched.PostBcast, "", "post-bcasts", func(x *sched.Ctx) {
		w := st.wl[x.R.ID]
		if root {
			w.packParams()
		}
		slot := 0
		for l, buf := range w.layerParam {
			if buf == nil {
				continue
			}
			req := x.R.Ibcast(st.comm, 0, buf, topology.ModeAuto)
			w.bcast[slot] = req
			slot++
			if st.cfg.Trace != nil {
				post, label, r := x.P.Now(), st.lbl.bcastWire[l], x.R
				req.OnComplete(func() {
					// The hook runs in kernel context at completion
					// time, so the current virtual time IS the
					// completion time, read before the pooled request
					// can be recycled by a later operation.
					st.cfg.Trace.AddNode(r.ID, "bcast-wire", label, post, r.Now())
				})
			}
		}
	})
}

// addOverlappedForward places each layer's broadcast wait immediately
// before the layer that consumes the data — too early wastes overlap,
// too late stalls compute (Section 4.2).
func (st *runState) addOverlappedForward(p *sched.Plan, root bool) {
	layers := st.cfg.Spec.Layers
	p.Add(0, sched.Generic, "", "begin-forward", func(x *sched.Ctx) { st.wl[x.R.ID].beginForward() })
	slot := 0 // the layer's workload.bcast slot
	for l := range layers {
		if layers[l].ParamElems != 0 {
			if !root {
				s := slot
				p.Add(0, sched.WaitBcast, "propagation", st.lbl.waitBcast[l], func(x *sched.Ctx) {
					st.wl[x.R.ID].unpackLayerParams(l)
				}).Awaiting(func(x *sched.Ctx) []*mpi.Request { return st.wl[x.R.ID].bcast[s : s+1] })
			}
			slot++
		}
		st.addForwardLayer(p, l)
	}
}

// addForward runs the full forward pass sequentially.
func (st *runState) addForward(p *sched.Plan) {
	p.Add(0, sched.Generic, "", "begin-forward", func(x *sched.Ctx) { st.wl[x.R.ID].beginForward() })
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
	p.Add(0, sched.Generic, "", "begin-backward", func(x *sched.Ctx) { st.wl[x.R.ID].beginBackward() })
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
func (st *runState) addDrainSends(p *sched.Plan) {
	p.Add(0, sched.DrainSends, "propagation", "drain-bcasts", nil).
		Awaiting(func(x *sched.Ctx) []*mpi.Request { return st.wl[x.R.ID].bcast })
}

// addUpdate performs the root solver's ApplyUpdate — unpack the
// reduced gradients, run the SGD arithmetic (scaled to average the
// per-solver mean gradients), charge the kernel time — followed by the
// untimed bookkeeping (loss recording, testing, snapshotting: see
// addPostUpdate).
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
	st.addPostUpdate(p, true)
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
	st.addPostUpdate(p, root)
}

// addPostUpdate appends the untimed bookkeeping after an update: the
// root records the loss, then runs the testing phase on a testing
// iteration and writes a snapshot on a snapshot one (real mode); every
// rank notes the progress, and the root ticks membership, at the virtual
// time the testing phase ends.
func (st *runState) addPostUpdate(p *sched.Plan, root bool) {
	if root {
		p.Add(0, sched.Generic, "", "record-loss", func(x *sched.Ctx) {
			if w := st.wl[x.R.ID]; w.real() {
				st.losses = append(st.losses, w.loss())
			}
		})
		p.AddSplice(sched.Generic, "", "test", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
			if ti := st.cfg.TestInterval; st.wl[x.R.ID].real() && ti > 0 && (x.It+1)%ti == 0 {
				return st.testPass, nil, 0
			}
			return nil, nil, 0
		})
	}
	p.Add(0, sched.Generic, "", "post-update", func(x *sched.Ctx) {
		if w := st.wl[x.R.ID]; root && w.real() {
			st.maybeSnapshot(x.R, w, x.It)
		}
		st.noteCompleted(x.It)
		st.membershipTick(x.R)
	})
}
