package coll

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// The OSU-style latency drivers (Section 6.5) of the reduce benchmark and
// the experiments. Their ranks have no goroutine (mpi.World.RunSteps):
// each walks one sealed plan as steps on the event loop, and a barrier
// is a node that polls it (mpi.Rank.PollBarrier). mpi.Comm.StartBarrier
// only readies the rank's barrier record, so the node before a barrier's
// poll starts it, or the rank's birth does for the first. The nodes make
// the kernel calls the blocking drivers made, in their order, so every
// event keeps its key and every latency its value (TestReduceBenchPinned).

// BenchTag tags the drivers' reductions, and the allreduce experiment's:
// a named constant, so that benchmark traffic never collides with a
// training tag.
const BenchTag = 10

// ReduceLatency measures a reduction of bytes to rank 0 of w, with the
// algorithm alg under options o, as the OSU benchmark does: every rank
// runs a barrier, its part of the reduction and a barrier, trials+1 times,
// and the latency is the mean, over every trial but the first, untimed
// one, of the span from rank 0's leaving the first barrier to the last
// rank's completing its part. w must not have run; slowing a device first
// (gpu.Device.SetSlowdown) measures a straggler. A rank walks the plan
// with the walker its reducer state keeps for Reduce.
func ReduceLatency(w *mpi.World, alg Algorithm, o Options, bytes int64, trials int) (sim.Duration, error) {
	if !alg.known() {
		return 0, fmt.Errorf("coll: unknown reduce algorithm %d", int(alg))
	}
	if bytes < 0 || trials < 1 {
		return 0, fmt.Errorf("coll: reduce latency of %d bytes over %d trials", bytes, trials)
	}
	comm := w.WorldComm()
	red := NewReducer(comm, alg, o)
	var tab *stateTable
	switch x := red.(type) {
	case *reducer:
		tab = x.tab
	case *tunedReducer:
		tab = x.tab
	}
	var start, last sim.Time
	var total sim.Duration
	pl := sched.NewPlan()
	barrier(pl, func(x *sched.Ctx) {
		if x.R.ID == 0 {
			start = x.R.Now()
		}
	})
	pl.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return red.Fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	pl.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
		last = max(last, x.R.Now())
		comm.StartBarrier(x.R)
	})
	barrier(pl, func(x *sched.Ctx) {
		if x.R.ID == 0 && x.It > 0 { // the first trial warms up
			total += last - start
		}
		comm.StartBarrier(x.R) // the next trial's
	})
	pl.Seal()
	bufs := make([]gpu.Buffer, w.Size())
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		bufs[r.ID].Bytes = bytes
		comm.StartBarrier(r)
		return tab.acquire(w.Size(), r.ID).walk.Start(r, pl, &bufs[r.ID], BenchTag, trials+1)
	})
	if err != nil {
		return 0, err
	}
	return total / sim.Duration(trials), nil
}

// IbcastLatency measures how long the offloaded broadcast of bytes from
// rank 0 of w takes at the last rank: every rank runs a barrier, posts its
// part of the Ibcast, waits for it, and runs a barrier. With compute > 0
// the last rank computes that long between its post and its wait, and the
// span is the overlapped one.
func IbcastLatency(w *mpi.World, bytes int64, compute sim.Duration) (sim.Duration, error) {
	comm := w.WorldComm()
	last := w.Size() - 1
	var start sim.Time
	var span sim.Duration
	type rank struct {
		walk sched.Walk
		buf  gpu.Buffer
		req  [1]*mpi.Request
	}
	ranks := make([]rank, w.Size())
	plan := func(computes bool) *sched.Plan {
		pl := sched.NewPlan()
		barrier(pl, nil)
		pl.Add(0, sched.PostBcast, "", "", func(x *sched.Ctx) {
			if x.R.ID == last {
				start = x.R.Now()
			}
			ranks[x.R.ID].req[0] = x.R.Ibcast(comm, 0, x.Buf, topology.ModeAuto)
		})
		if computes {
			pl.AddTimed(0, sched.ComputeForward, "", "", func(x *sched.Ctx) sim.Time { return x.R.Now() + compute })
		}
		pl.Add(0, sched.WaitBcast, "", "", func(x *sched.Ctx) {
			if x.R.ID == last {
				span = x.R.Now() - start
			}
			comm.StartBarrier(x.R)
		}).Awaiting(func(x *sched.Ctx) []*mpi.Request { return ranks[x.R.ID].req[:] })
		barrier(pl, nil)
		pl.Seal()
		return pl
	}
	others, lasts := plan(false), plan(compute > 0)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		rk, pl := &ranks[r.ID], others
		if r.ID == last {
			pl = lasts
		}
		rk.buf.Bytes = bytes
		comm.StartBarrier(r)
		return rk.walk.Start(r, pl, &rk.buf, BenchTag, 1)
	})
	return span, err
}

// barrier appends a node that polls the rank through the barrier started
// before it, then runs then, if any.
func barrier(pl *sched.Plan, then func(x *sched.Ctx)) {
	pl.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
		if !x.R.PollBarrier() {
			x.Again()
		} else if then != nil {
			then(x)
		}
	})
}
