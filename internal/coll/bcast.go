package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/topology"
)

// bsagBoundary returns the starting element of contiguous segment i
// when elems elements are split across size ranks.
func bsagBoundary(size, elems, i int) int { return i * elems / size }

// BcastScatterAllgather is van de Geijn's large-message broadcast: a
// binomial scatter of contiguous segments followed by a ring
// allgather. Total traffic per rank is ~2b(P−1)/P versus the binomial
// tree's b·log2(P), so it wins for the multi-megabyte parameter
// buffers DL frameworks broadcast — the same large-message reasoning
// as the paper's chained reduce, applied to propagation. Works for any
// communicator size and root. Tags tag..tag+P are reserved.
func BcastScatterAllgather(c *mpi.Comm, r *mpi.Rank, root int, buf *gpu.Buffer, tag int, mode topology.TransferMode) {
	size := c.Size()
	if size == 1 {
		return
	}
	st := new(rankState) // views for the length of the call
	me := c.Rank(r)
	rel := (me - root + size) % size
	elems := buf.Elems()

	// Binomial scatter: node `rel` with entry bit B covers segments
	// [rel, min(rel+B, size)); its children rel+m (m = B/2, B/4, ...)
	// each take the upper half [rel+m, min(rel+2m, size)).
	entryBit := 1
	for entryBit < size {
		entryBit <<= 1
	}
	if rel != 0 {
		bit := rel & (-rel) // lowest set bit: the binomial entry edge
		parent := rel - bit
		hi := rel + bit
		if hi > size {
			hi = size
		}
		blo, bhi := bsagBoundary(size, elems, rel), bsagBoundary(size, elems, hi)
		if blo < bhi {
			r.RecvSummed(c, (parent+root)%size, tag, st.view(buf, blo, bhi)).Verify()
		}
		entryBit = bit
	}
	for m := entryBit >> 1; m >= 1; m >>= 1 {
		child := rel + m
		if child >= size {
			continue
		}
		hi := child + m
		if hi > size {
			hi = size
		}
		blo, bhi := bsagBoundary(size, elems, child), bsagBoundary(size, elems, hi)
		if blo < bhi {
			r.Send(c, (child+root)%size, tag, st.view(buf, blo, bhi), mode)
		}
	}

	// Ring allgather: after P−1 steps every rank holds every segment.
	left := ((rel-1+size)%size + root) % size
	right := ((rel+1)%size + root) % size
	for step := 0; step < size-1; step++ {
		sendSeg := ((rel-step)%size + size) % size
		recvSeg := ((rel-step-1)%size + size) % size
		var sreq *mpi.Request
		slo, shi := bsagBoundary(size, elems, sendSeg), bsagBoundary(size, elems, sendSeg+1)
		if slo < shi {
			sreq = r.Isend(c, right, tag+1+step, st.view(buf, slo, shi), mode)
		}
		rlo, rhi := bsagBoundary(size, elems, recvSeg), bsagBoundary(size, elems, recvSeg+1)
		if rlo < rhi {
			r.RecvSummed(c, left, tag+1+step, st.view(buf, rlo, rhi)).Verify()
		}
		if sreq != nil {
			r.Wait(sreq)
		}
	}
}
