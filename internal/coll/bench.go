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
// the experiments, and the allreduce experiment's synchronization step.
// Their ranks have no goroutine (mpi.World.RunSteps): each walks one
// sealed plan as steps on the event loop, and a barrier is a node that
// polls it (mpi.Rank.PollBarrier). mpi.Comm.StartBarrier
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
	tab := red.(*reducer).tab
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
	buf := gpu.NewBuffer(bytes) // every rank's: a payload-free buffer is its size
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		comm.StartBarrier(r)
		return tab.acquire(w.Size(), r.ID).walk.Start(r, pl, buf, BenchTag, trials+1)
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
	ranks := make([]driverRank, w.Size())
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
	others, lasts, buf := plan(false), plan(compute > 0), gpu.NewBuffer(bytes)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		rk, pl := &ranks[r.ID], others
		if r.ID == last {
			pl = lasts
		}
		comm.StartBarrier(r)
		return rk.walk.Start(r, pl, buf, BenchTag, 1)
	})
	return span, err
}

// AllreduceLatency measures one parameter synchronization of bytes over
// w: every rank runs a barrier, an allreduce — the HR reduce to rank 0
// and rank 0's offloaded broadcast of the sum, or the ring — and a
// barrier, and the latency is the span from rank 0's leaving the first
// barrier to the last rank's finishing the allreduce. w must not have
// run.
func AllreduceLatency(w *mpi.World, bytes int64, ring bool) (sim.Duration, error) {
	comm := w.WorldComm()
	o := DefaultOptions()
	red, rg := NewReducer(comm, Tuned, o), NewRing(comm, o)
	var start, done sim.Time
	ranks := make([]driverRank, w.Size())
	pl := sched.NewPlan()
	barrier(pl, func(x *sched.Ctx) {
		if x.R.ID == 0 {
			start = x.R.Now()
		}
	})
	pl.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		if ring {
			return rg.Fragment(x.R, x.Buf), x.Buf, x.Tag
		}
		return red.Fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	if !ring {
		pl.Add(0, sched.PostBcast, "", "", func(x *sched.Ctx) {
			ranks[x.R.ID].req[0] = x.R.Ibcast(comm, 0, x.Buf, topology.ModeAuto)
		})
		pl.Add(0, sched.WaitBcast, "", "", nil).Awaiting(func(x *sched.Ctx) []*mpi.Request { return ranks[x.R.ID].req[:] })
	}
	pl.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
		done = max(done, x.R.Now())
		comm.StartBarrier(x.R)
	})
	barrier(pl, nil)
	pl.Seal()
	buf := gpu.NewBuffer(bytes)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		comm.StartBarrier(r)
		return ranks[r.ID].walk.Start(r, pl, buf, BenchTag, 1)
	})
	return done - start, err
}

// driverRank is a rank of a driver that posts a broadcast: its walk and
// the request it awaits.
type driverRank struct {
	walk sched.Walk
	req  [1]*mpi.Request
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
