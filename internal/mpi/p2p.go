package mpi

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// EagerLimit is the message size up to which sends complete locally
// without waiting for the receiver (eager protocol); larger messages
// use rendezvous and complete only when the transfer finishes.
const EagerLimit = 64 << 10

// pendingSend is one unexpected message: the sender arrived before the
// matching receive was posted. Records are pooled on the receiving
// rank and linked into its match table (match.go). reqGen
// snapshots the send request's completion generation at post time: an
// eager send fires (and may be recycled by the sender's Wait) long
// before the receiver arrives, so the delivery fires the send side
// through FireIf.
type pendingSend struct {
	from   *Rank
	buf    *gpu.Buffer
	mode   topology.TransferMode
	sentAt sim.Time
	req    *Request
	reqGen uint64
	next   *pendingSend // match-queue or free-list link
}

// Request tracks a non-blocking operation. Its embedded completion
// fires when the operation completes (buffer reusable for sends, data
// delivered for receives).
//
// Requests are pooled per rank with the lifecycle of MPI_Wait and
// MPI_Test: when Wait returns, or Reap reports the request complete, the
// handle is dead and its record returns to the owner's free list. The
// completion is embedded by value — recycling the request recycles the
// completion, and the generation bump makes any stale reference (an
// eager send's queued delivery, a scheduled FireAt) dissolve instead of
// completing the record's next life.
type Request struct {
	done sim.Completion
	// buf is the operation's buffer; nil while the record is on its
	// rank's free list.
	buf *gpu.Buffer
	// summed, when non-nil, records the delivered payload's checksum
	// for the integrity plane (see IrecvSummed).
	summed *Summed
	next   *Request // match-queue (posted receives) or free-list link
}

// getRequest returns a fresh un-fired request from the rank's free
// list; the cold miss path lives in newRequest. Every request is made
// here, so here is where one made inside a kernel hook (a RunEvent, a
// Kernel.At or OnFire callback) is refused: no proc runs there to wait
// it, so it would leak. A request needs a buffer: a nil one would
// read as released.
func (r *Rank) getRequest(buf *gpu.Buffer) *Request {
	if r.W.K.InHook() {
		r.requestInHook()
	}
	if buf == nil {
		r.requestWithoutBuffer()
	}
	r.reqsLive++
	req := r.reqFree
	if req == nil {
		return r.newRequest(buf)
	}
	r.reqFree, req.next = req.next, nil
	req.done.Init(r.W.K)
	req.buf = buf
	return req
}

// newRequest is getRequest's pool-miss path. Records are carved from
// the world's blocks (carver): ranks that post every layer's broadcast
// up front take a handful of allocations between them to get there, not
// one per request or a block per rank.
func (r *Rank) newRequest(buf *gpu.Buffer) *Request {
	req := r.W.reqs.next()
	req.buf = buf
	req.done.Init(r.W.K)
	return req
}

//go:noinline
func (r *Rank) requestWithoutBuffer() {
	panic(fmt.Sprintf("mpi: rank %d made a request with a nil buffer", r.ID))
}

//go:noinline
func (r *Rank) requestInHook() {
	panic(fmt.Sprintf("mpi: rank %d made a request inside a kernel hook (a RunEvent, Kernel.At or OnFire callback): no proc there can wait it", r.ID))
}

// LiveRequests returns how many of the rank's requests are made and not
// yet released by a wait or a reap, leaving out those a new membership
// epoch abandoned (see World.bumpEpoch). A rank that ran to the end of a
// run has none: a request nobody waits or reaps is a leak.
func (r *Rank) LiveRequests() int {
	return r.reqsLive - r.reqsAbandoned
}

// putRequest recycles a settled request; clearing its buffer marks it
// released. Double releases are absorbed (a request waited twice
// settles once).
func (r *Rank) putRequest(req *Request) {
	if req.buf == nil {
		return
	}
	req.buf = nil
	req.summed = nil
	req.next = r.reqFree
	r.reqFree = req
	r.reqsLive--
}

// getPendingSend draws an unexpected-message record from the rank's
// free list, or carves a new one from the world's blocks.
func (r *Rank) getPendingSend() *pendingSend {
	ps := r.psFree
	if ps == nil {
		return r.W.pss.next()
	}
	r.psFree, ps.next = ps.next, nil
	return ps
}

func (r *Rank) putPendingSend(ps *pendingSend) {
	*ps = pendingSend{next: r.psFree}
	r.psFree = ps
}

// Wait blocks the rank until the request completes, then releases the
// request record back to the rank's free list: as in MPI_Wait, the
// handle must not be used after Wait returns. With a
// fault plane armed the wait is deadline-sliced and
// may panic with Revoked{} if a rank failure is detected (see
// fault.go) — an unwound request is abandoned to the collector, never
// recycled. Like every blocking MPI call it belongs to the rank's main
// proc.
func (r *Rank) Wait(req *Request) {
	r.waiting = waitStep{r: r, c: &req.done}
	r.Proc.RunSteps(&r.waiting)
	r.putRequest(req)
}

// Reap is MPI_Test on a request the rank holds: if the request has
// completed, Reap releases it, as Wait does, and reports true; the
// handle must not be used again. Otherwise it reports false. Either way
// it arms no wait and schedules no event, so reaping what has completed
// moves no other event.
func (r *Rank) Reap(req *Request) bool {
	if !req.done.Fired() {
		return false
	}
	r.putRequest(req)
	return true
}

// OnComplete registers fn to run (in kernel context) when the request
// completes; if it already completed, fn is scheduled immediately.
// The engine uses these hooks for recording wire-level spans of
// offloaded operations. The hook runs at
// the completion instant but possibly after the waiter has released
// the request, so it must not touch the request handle.
func (req *Request) OnComplete(fn func()) { req.done.OnFire(fn) }

// Isend starts a non-blocking send of buf to group rank `to` of comm c
// with the given tag.
func (r *Rank) Isend(c *Comm, to, tag int, buf *gpu.Buffer, mode topology.TransferMode) *Request {
	r.ftCheck()
	dst := c.rankAt(to)
	if dst == r {
		panic(fmt.Sprintf("mpi: rank %d sending to itself (comm %d tag %d)", r.ID, c.id, tag))
	}
	req := r.getRequest(buf)
	at := dst.match.find(c.id, r.ID, tag)
	if recvReq := dst.match.popRecv(at); recvReq != nil {
		r.startTransfer(r.Now(), dst, buf, recvReq, req, req.done.Gen(), mode)
		return req
	}
	ps := dst.getPendingSend()
	ps.from, ps.buf, ps.mode, ps.sentAt = r, buf, mode, r.Now()
	ps.req, ps.reqGen = req, req.done.Gen()
	dst.match.pushSend(at, ps)
	if buf.Bytes <= EagerLimit {
		// Eager: the payload leaves the sender immediately; the send
		// buffer is reusable right away.
		req.done.Fire()
	}
	return req
}

// Irecv posts a non-blocking receive into buf from group rank `from`
// of comm c with the given tag.
func (r *Rank) Irecv(c *Comm, from, tag int, buf *gpu.Buffer) *Request {
	return r.irecv(c, from, tag, buf, nil)
}

func (r *Rank) irecv(c *Comm, from, tag int, buf *gpu.Buffer, s *Summed) *Request {
	r.ftCheck()
	src := c.rankAt(from)
	req := r.getRequest(buf)
	req.summed = s
	at := r.match.find(c.id, src.ID, tag)
	if ps := r.match.popSend(at); ps != nil {
		// Eager data was already in flight since sentAt; rendezvous
		// starts now that the receiver arrived.
		start := r.Now()
		if ps.buf.Bytes <= EagerLimit {
			start = ps.sentAt
		}
		ps.from.startTransfer(start, r, ps.buf, req, ps.req, ps.reqGen, ps.mode)
		r.putPendingSend(ps)
		return req
	}
	r.match.pushRecv(at, req)
	return req
}

// delivery is the pooled payload of one in-flight transfer's landing
// event: at the wire end time it copies the payload, settles the
// integrity handle, and fires both sides through their snapshotted
// generations (the send side of an eager transfer may have been
// recycled in the meantime). A broadcast tree edge is a delivery too:
// op is set, the requests are not, and the landing goes to the op
// (bcastOp.land).
type delivery struct {
	sender  *Rank
	recv    *Rank
	src     *gpu.Buffer
	recvReq *Request
	sendReq *Request
	recvGen uint64
	sendGen uint64
	summed  *Summed
	mode    topology.TransferMode
	// epoch stamps the membership epoch of the sending instant; a
	// landing against a later epoch dissolves (see World.bumpEpoch).
	epoch int
	// The broadcast tree edge this delivery lands, if op is set: its op
	// and the key the op had when the edge was sent, the edge's parent
	// and child group ranks, and which retransmission it is. The three
	// are 32-bit and share a word with the flags below, so a delivery is
	// two cache lines (TestDeliverySize).
	op            *bcastOp
	key           bcastKey
	parent, child int32
	try           int32
	// replay marks a landing already perturbed once (held or stashed):
	// it lands without consulting the wire plane again. ghost marks a
	// duplicate landing, which re-copies under generation guards (a
	// broadcast edge's: while its op is live under its key) but never
	// settles the integrity handle or commits the edge.
	replay bool
	ghost  bool
	next   *delivery // free-list link
}

// RunEvent implements sim.Runnable.
func (d *delivery) RunEvent(k *sim.Kernel) {
	w := d.sender.W
	if d.ghost && d.op != nil {
		// A duplicate edge after the original committed: re-copy only
		// while the op is still live under its key, and never commit —
		// committing twice would corrupt rootSends and re-mark readiness.
		if w.bcastOps[d.key] == d.op {
			d.op.bufOf(int(d.child)).CopyFrom(d.src)
		}
		w.putDelivery(d)
		return
	}
	if d.epoch != w.epoch {
		w.Fault.NoteStaleDissolved()
		w.putDelivery(d)
		return
	}
	if d.ghost {
		// A duplicate landing: the original has already delivered at this
		// instant, so the waiter's generations are still valid and the
		// re-copy is a harmless overwrite with identical bytes. The
		// integrity handle is NOT re-settled — the payload arrived once as
		// far as checksumming is concerned.
		if d.recvReq.done.Gen() == d.recvGen {
			d.recvReq.buf.CopyFrom(d.src)
		}
		d.recvReq.done.FireIf(d.recvGen)
		d.sendReq.done.FireIf(d.sendGen)
		w.putDelivery(d)
		return
	}
	if w.Fault.WireArmed() && !d.replay && !w.perturbDelivery(d, k.Now()) {
		return
	}
	if d.op != nil {
		d.op.land(w, d)
		return
	}
	d.recvReq.buf.CopyFrom(d.src)
	if s := d.summed; s != nil {
		s.deliver(d.sender, d.mode)
	}
	d.recvReq.done.FireIf(d.recvGen)
	d.sendReq.done.FireIf(d.sendGen)
	w.putDelivery(d)
}

// startTransfer books the wire time and schedules delivery: at the end
// of the transfer the payload is copied and both requests complete.
// sendGen is the send completion's generation snapshotted at post
// time; the receive side snapshots here (it cannot be recycled before
// delivery fires it).
func (r *Rank) startTransfer(at sim.Time, dst *Rank, src *gpu.Buffer, recvReq, sendReq *Request, sendGen uint64, mode topology.TransferMode) {
	if recvReq.buf.Bytes != src.Bytes {
		panic(fmt.Sprintf("mpi: message size mismatch: send %d bytes, recv %d bytes", src.Bytes, recvReq.buf.Bytes))
	}
	_, end := r.W.Cluster.Transfer(at, r.Dev.ID, dst.Dev.ID, src.Bytes, mode)
	if end < r.Now() {
		end = r.Now()
	}
	d := r.W.getDelivery()
	d.sender, d.recv, d.src, d.mode = r, dst, src, mode
	d.recvReq, d.recvGen = recvReq, recvReq.done.Gen()
	d.sendReq, d.sendGen = sendReq, sendGen
	d.summed = recvReq.summed
	d.epoch = r.W.epoch
	r.W.K.AtRun(end, d)
}

// Send is a blocking send (Isend + Wait).
func (r *Rank) Send(c *Comm, to, tag int, buf *gpu.Buffer, mode topology.TransferMode) {
	r.Wait(r.Isend(c, to, tag, buf, mode))
}

// Recv is a blocking receive (Irecv + Wait).
func (r *Rank) Recv(c *Comm, from, tag int, buf *gpu.Buffer) {
	r.Wait(r.Irecv(c, from, tag, buf))
}
