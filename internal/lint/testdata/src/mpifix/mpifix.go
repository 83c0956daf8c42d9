// Package mpifix seeds mpi-pass violations for the golden fixture
// test: leaked and discarded requests, literal tags, and blocking
// collectives inside helper threads.
package mpifix

import (
	"scaffe/internal/coll"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

const fixTag = 7

func discarded(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	r.Isend(c, 1, fixTag, buf, topology.ModeAuto) // want `mpi.Isend result discarded`
	_ = r.Irecv(c, 1, fixTag, buf)                // want `mpi.Irecv result discarded`
}

func leakedOnReturn(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	req := r.Isend(c, 1, fixTag, buf, topology.ModeAuto) // want `request from mpi.Isend does not reach Wait/Test`
	if buf.Bytes > 0 {
		return
	}
	_ = req
}

func leakedAtScopeEnd(red coll.Reducer, r *mpi.Rank, buf *gpu.Buffer) {
	req := r.NewDeferredRequest(func() {}) // want `request from mpi.NewDeferredRequest does not reach Wait/Test`
	if buf.Bytes > 0 {
		req = coll.Ireduce(red, r, buf, fixTag)
		r.Wait(req)
	}
}

func literalTags(red coll.Reducer, r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	r.Send(c, 1, 42, buf, topology.ModeAuto) // want `literal tag passed to mpi.Send`
	red.Reduce(r, buf, 13)                   // want `literal tag passed to coll.Reduce`
}

func blockingInHelper(red coll.Reducer, r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	r.SpawnThread("helper", func(p *sim.Proc) {
		r.Bcast(c, 0, buf, topology.ModeAuto) // want `blocking mpi.Bcast inside a SpawnThread helper`
		red.Reduce(r, buf, fixTag)            // want `blocking collective coll.Reduce inside a SpawnThread helper`
	})
}

func wellBehaved(red coll.Reducer, r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	sreq := r.Isend(c, 1, fixTag, buf, topology.ModeAuto)
	rreq := r.Irecv(c, 1, fixTag+1, buf)
	r.Wait(sreq)
	r.Wait(rreq)

	var late *mpi.Request
	if buf.Bytes > 0 {
		late = r.Ibcast(c, 0, buf, topology.ModeAuto)
	}
	if late != nil {
		r.Wait(late)
	}

	r.SpawnThread("helper", func(p *sim.Proc) {
		ireq := coll.Ireduce(red, r, buf, fixTag) // non-blocking in a helper: allowed
		r.Wait(ireq)
	})
}
