package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// Ring is the bandwidth-optimal ring allreduce (reduce-scatter +
// allgather over 2(P−1) steps) that later frameworks (NCCL, Horovod)
// adopted — included as the "future work" extension the paper
// anticipates, as an ablation baseline, and as the CNTK-like design's
// host-side collective. Every rank plays the same role, so it compiles
// one fragment; build it once per communicator.
type Ring struct{ *reducer }

// NewRing builds a reusable ring-allreduce over c.
func NewRing(c *mpi.Comm, o Options) *Ring { return &Ring{flat("ring", ring, &stateTable{o: o}, c)} }

// Allreduce performs this rank's part of the ring allreduce. Tags
// tag..tag+2P are reserved.
func (g *Ring) Allreduce(r *mpi.Rank, buf *gpu.Buffer, tag int) { g.Reduce(r, buf, tag) }

// ring is the Ring's steps over size ranks: each step sends a segment
// right and receives the one before it from the left, reducing it during
// the reduce-scatter — after which rank i holds the fully reduced segment
// (i+1) mod P — and keeping it during the allgather.
func ring(s []step, ro role) []step {
	for i := int32(0); i < 2*int32(ro.size-1); i++ {
		next, tag := recvReduce, i
		if i >= int32(ro.size-1) {
			next, tag = recv, i+1
		}
		s = append(s,
			step{op: send, peer: 1, tag: tag, part: ringSeg, seg: -i, mode: ro.mode},
			step{op: next, peer: -1, tag: tag, part: ringSeg, seg: -i - 1},
			step{op: join})
	}
	return s
}
