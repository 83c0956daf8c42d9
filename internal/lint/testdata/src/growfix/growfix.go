// Package growfix seeds mpi-pass violations around the elastic grow
// path for the golden fixture test: discarded and leaked join-handshake
// requests next to the well-behaved admit/catch-up shape.
package growfix

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/topology"
)

const ackTag = 9

func discardedAck(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	r.IjoinAck(c, ackTag, buf)            // want `mpi.IjoinAck result discarded`
	_ = r.IjoinAckRecv(c, 2, ackTag, buf) // want `mpi.IjoinAckRecv result discarded`
}

func leakedAckOnReturn(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer, admitted []int) {
	req := r.IjoinAck(c, ackTag, buf) // want `request from mpi.IjoinAck does not reach Wait/Test`
	if len(admitted) == 0 {
		return
	}
	_ = req
}

func leakedAckRecvAtScopeEnd(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer, admitted []int) {
	req := r.IjoinAckRecv(c, 1, ackTag, buf) // want `request from mpi.IjoinAckRecv does not reach Wait/Test`
	if len(admitted) > 1 {
		req = r.IjoinAck(c, ackTag, buf)
		r.Wait(req)
	}
}

func literalAckTag(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	req := r.IjoinAck(c, 61, buf) // want `literal tag passed to mpi.IjoinAck`
	r.Wait(req)
}

func wellBehavedCatchup(w *mpi.World, r *mpi.Rank, buf *gpu.Buffer, members, admitted []int) {
	grown := w.EpochComm(members)
	if grown.Rank(r) == 0 {
		for range admitted {
			r.Wait(r.IjoinAckRecv(grown, 1, ackTag, buf))
		}
	} else {
		r.Wait(r.IjoinAck(grown, ackTag, buf))
	}
	r.Bcast(grown, 0, buf, topology.ModeAuto)
}
