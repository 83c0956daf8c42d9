package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/topology"
)

// Allreduce performs reduce-to-root followed by broadcast using the
// given reducer. Every member of the reducer's communicator must call
// it. Tags tag..tag+2 are reserved.
func Allreduce(red Reducer, c *mpi.Comm, r *mpi.Rank, buf *gpu.Buffer, tag int, mode topology.TransferMode) {
	red.Reduce(r, buf, tag)
	r.Bcast(c, 0, buf, mode)
}

// RingAllreduce is the bandwidth-optimal ring algorithm (reduce-
// scatter + allgather over 2(P−1) steps) that later frameworks (NCCL,
// Horovod) adopted — included as the "future work" extension the paper
// anticipates and as an ablation baseline. Tags tag..tag+2P are
// reserved.
func RingAllreduce(c *mpi.Comm, r *mpi.Rank, buf *gpu.Buffer, tag int, o Options) {
	//scaffe:coldpath the one-shot entry point makes its state per call by documented design; Ring keeps one
	ringAllreduce(c, r, buf, tag, o, new(rankState))
}

// ringSegOf returns the element extents of ring segment j (taken
// modulo the group size).
func ringSegOf(size, elems, j int) (lo, hi int) {
	j = (j%size + size) % size
	per := (elems + size - 1) / size
	lo = j * per
	hi = lo + per
	if hi > elems {
		hi = elems
	}
	if lo > hi {
		lo = hi
	}
	return
}

// ringAllreduce is the implementation, on the caller's state: Ring's,
// which lasts, or the exported entry point's, which does not.
func ringAllreduce(c *mpi.Comm, r *mpi.Rank, buf *gpu.Buffer, tag int, o Options, st *rankState) {
	me := c.Rank(r)
	size := c.Size()
	if size == 1 {
		return
	}
	elems := buf.Elems()
	left := (me - 1 + size) % size
	right := (me + 1) % size

	// Reduce-scatter: after P-1 steps, rank i holds the fully reduced
	// segment (i+1) mod P.
	for step := 0; step < size-1; step++ {
		sendSeg := me - step
		recvSeg := me - step - 1
		slo, shi := ringSegOf(size, elems, sendSeg)
		rlo, rhi := ringSegOf(size, elems, recvSeg)
		acc := st.view(buf, rlo, rhi)
		scratch := st.getScratch(acc)
		sreq := r.Isend(c, right, tag+step, st.view(buf, slo, shi), o.Mode)
		r.RecvSummed(c, left, tag+step, scratch).Verify()
		localReduce(r, acc, scratch, o)
		st.putScratch(scratch)
		r.Wait(sreq)
	}
	// Allgather: circulate the reduced segments.
	for step := 0; step < size-1; step++ {
		sendSeg := me + 1 - step
		recvSeg := me - step
		slo, shi := ringSegOf(size, elems, sendSeg)
		rlo, rhi := ringSegOf(size, elems, recvSeg)
		sreq := r.Isend(c, right, tag+size+step, st.view(buf, slo, shi), o.Mode)
		r.RecvSummed(c, left, tag+size+step, st.view(buf, rlo, rhi)).Verify()
		r.Wait(sreq)
	}
}

// Ring wraps RingAllreduce with per-rank reusable scratch state for
// callers that allreduce every iteration (the parameter-server and
// ablation designs); build it once per communicator.
type Ring struct {
	c      *mpi.Comm
	o      Options
	states stateTable
}

// NewRing builds a reusable ring-allreduce over c.
func NewRing(c *mpi.Comm, o Options) *Ring { return &Ring{c: c, o: o} }

// Allreduce performs this rank's part of the ring allreduce. Tags
// tag..tag+2P are reserved.
func (g *Ring) Allreduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	st := g.states.acquire(g.c.Size(), g.c.Rank(r))
	defer st.release()
	ringAllreduce(g.c, r, buf, tag, g.o, st)
}
