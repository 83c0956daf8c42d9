package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
)

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
// host-side collective. Every rank plays the same role, so it compiles
// one fragment; build it once per communicator.
type Ring struct{ x *reducer }

// NewRing builds a reusable ring-allreduce over c.
func NewRing(c *mpi.Comm, o Options) *Ring { return &Ring{flat(ringAllreduce, o, &stateTable{}, c)} }

// Allreduce performs this rank's part of the ring allreduce. Tags
// tag..tag+2P are reserved.
func (g *Ring) Allreduce(r *mpi.Rank, buf *gpu.Buffer, tag int) { g.x.Reduce(r, buf, tag) }

// Fragment readies r's state to allreduce buf and returns the fragment
// to splice for it, or nil if r has nothing to do: Reducer.Fragment for
// the ring.
func (g *Ring) Fragment(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan { return g.x.Fragment(r, buf) }

// ring is the Ring's fragment over size ranks: each step sends a
// segment right and receives the one before it from the left, reducing
// it during the reduce-scatter — after which rank i holds the fully
// reduced segment (i+1) mod P — and keeping it during the allgather.
func (b *builder) ring(size int) {
	t := b.t
	step := func(x *sched.Ctx) {
		st := t.state(x)
		s := st.begin()
		tag, gather := x.Tag+s, s >= size-1
		if gather {
			tag++
		}
		rlo, rhi := ringSegOf(size, x.Buf.Elems(), st.me-s-1)
		slo, shi := ringSegOf(size, x.Buf.Elems(), st.me-s)
		into := st.view(x.Buf, rlo, rhi)
		if !gather {
			st.acc, st.op = into, st.getScratch(into)
			into = st.op
		}
		st.req[1] = x.R.Isend(st.c, (st.me+1)%size, tag, st.view(x.Buf, slo, shi), t.o.Mode)
		st.recv(x, (st.me-1+size)%size, tag, into)
	}
	for s := 0; s < 2*(size-1); s++ {
		b.stage(step, s < size-1)
		b.join(b.sent)
	}
}
