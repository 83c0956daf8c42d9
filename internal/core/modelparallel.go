package core

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Model parallelism (the MPI-Caffe row of Table 1): layers are
// partitioned across ranks by balanced FLOPs; the whole batch flows
// through the pipeline stage by stage. No parameter broadcast and no
// gradient aggregation exist — each rank owns its layers — but every
// stage waits for its upstream neighbour, which is why Section 3.1
// argues the data-parallel approach scales better for these networks.

// mpPartition splits the spec's layers into `stages` contiguous groups
// with approximately equal forward+backward FLOPs.
func mpPartition(cfg *Config, stages int) [][2]int {
	n := len(cfg.Spec.Layers)
	if stages > n {
		stages = n
	}
	var total float64
	for _, l := range cfg.Spec.Layers {
		total += l.FwdFLOPs + l.BwdFLOPs
	}
	target := total / float64(stages)
	var parts [][2]int
	lo := 0
	var acc float64
	for i, l := range cfg.Spec.Layers {
		acc += l.FwdFLOPs + l.BwdFLOPs
		partsLeft := stages - len(parts) // including the one being built
		layersLeft := n - i - 1
		if partsLeft > 1 && layersLeft >= partsLeft-1 &&
			(acc >= target || layersLeft == partsLeft-1) {
			parts = append(parts, [2]int{lo, i})
			lo = i + 1
			acc = 0
		}
	}
	parts = append(parts, [2]int{lo, n - 1})
	return parts
}

// mpBoundaryBytes is the activation volume crossing the boundary after
// layer l for the given batch.
func mpBoundaryBytes(cfg *Config, l, batch int) int64 {
	return int64(cfg.Spec.Layers[l].OutElems) * 4 * int64(batch)
}

// mpStage is what one pipeline stage's plan knows: its neighbours by
// number, what crosses its upper and lower boundary (activations one
// way, their gradients the other, so one buffer each), and the
// parameters it owns. The node actions are its methods; each boundary
// transfer posts the operation its blocking node awaits.
type mpStage struct {
	st           *runState
	stage        int
	above, below *gpu.Buffer
	ownParams    int
}

func (s *mpStage) recvActs(x *sched.Ctx) *mpi.Request {
	return x.R.Irecv(s.st.comm, s.stage-1, tagMPFwd, s.above)
}
func (s *mpStage) sendActs(x *sched.Ctx) *mpi.Request {
	return x.R.Isend(s.st.comm, s.stage+1, tagMPFwd, s.below, topology.ModeAuto)
}
func (s *mpStage) recvGrads(x *sched.Ctx) *mpi.Request {
	return x.R.Irecv(s.st.comm, s.stage+1, tagMPBwd, s.below)
}
func (s *mpStage) sendGrads(x *sched.Ctx) *mpi.Request {
	return x.R.Isend(s.st.comm, s.stage-1, tagMPBwd, s.above, topology.ModeAuto)
}

// update is the local update of the owned layer range.
func (s *mpStage) update(x *sched.Ctx) sim.Time {
	_, end := x.R.Dev.LaunchCompute(x.P.Now(), updateFLOPs(s.ownParams))
	return end
}

// buildMP is the plan of one pipeline stage (the rank of the same
// number runs it). Every stage processes the full global batch for its
// own layer range: activations arrive from the stage above and leave for
// the stage below with CUDA-aware transfers, gradients come back the
// same way, and the stage updates the layers it owns — no aggregation.
// A stage past the last (more ranks than layers) gets no nodes. The
// design is timing-only: real compute skips the input gradient of a
// net's first layer (workload.backwardLayer), which a stage that owned
// a net of its own would have to send upstream.
func (st *runState) buildMP(p *sched.Plan, stage int) {
	cfg := st.cfg
	if cfg.RealNet != nil {
		panic("core: model parallelism has no real-compute path")
	}
	if stage >= len(st.mpStages) {
		return
	}
	lo, hi := st.mpStages[stage][0], st.mpStages[stage][1]
	first, last := stage == 0, stage == len(st.mpStages)-1
	s := &mpStage{st: st, stage: stage}
	if !first {
		s.above = gpu.NewBuffer(mpBoundaryBytes(cfg, lo-1, cfg.GlobalBatch))
	}
	if !last {
		s.below = gpu.NewBuffer(mpBoundaryBytes(cfg, hi, cfg.GlobalBatch))
	}

	if first {
		st.addDataWait(p)
	} else {
		st.addBlocking(p, sched.Generic, "forward", "recv-acts", s.recvActs)
	}
	for l := lo; l <= hi; l++ {
		st.addForwardLayer(p, l)
		s.ownParams += cfg.Spec.Layers[l].ParamElems
	}
	if !last {
		st.addBlocking(p, sched.Generic, "forward", "send-acts", s.sendActs)
		st.addBlocking(p, sched.Generic, "backward", "recv-grads", s.recvGrads)
	}
	for l := hi; l >= lo; l-- {
		st.addBackwardLayer(p, 0, l)
	}
	if !first {
		st.addBlocking(p, sched.Generic, "backward", "send-grads", s.sendGrads)
	}
	p.AddTimed(0, sched.Update, "update", "update", s.update)
}
