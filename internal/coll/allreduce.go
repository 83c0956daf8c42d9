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

// Ring is the bandwidth-optimal ring allreduce (reduce-scatter +
// allgather over 2(P−1) steps) that later frameworks (NCCL, Horovod)
// adopted — included as the "future work" extension the paper
// anticipates, as an ablation baseline, and as the CNTK-like design's
// host-side collective. It carries per-rank reusable scratch state;
// build it once per communicator.
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
	c, o := g.c, g.o
	me := c.Rank(r)
	size := c.Size()
	if size == 1 {
		return
	}
	elems := buf.Elems()
	left := (me - 1 + size) % size
	right := (me + 1) % size
	st := g.states.acquire(size, me)
	defer st.release()

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
