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
	next   *pendingSend
}

// Request tracks a non-blocking operation. Done fires when the
// operation completes (buffer reusable for sends, data delivered for
// receives).
//
// Requests are pooled per rank with a release-on-Wait lifecycle
// mirroring MPI_Wait semantics: when Wait returns, the handle is dead
// and its record returns to the owner's free list. The completion is
// embedded by value — recycling the request recycles the completion,
// and the generation bump makes any stale reference (an eager send's
// queued delivery, a scheduled FireAt) dissolve instead of completing
// the record's next life.
type Request struct {
	// Done fires when the operation completes; it always points at the
	// embedded completion.
	Done *sim.Completion
	done sim.Completion
	buf  *gpu.Buffer
	// deferred, when non-nil, is executed inside Wait — used for
	// CPU-progressed operations like Ireduce.
	deferred func()
	// summed, when non-nil, records the delivered payload's checksum
	// for the integrity plane (see RecvSummed).
	summed *Summed
	next   *Request // match-queue link (posted receives)
	pooled bool
}

// getRequest returns a fresh un-fired request from the rank's free
// list; the cold miss path lives in newRequest.
func (r *Rank) getRequest(buf *gpu.Buffer) *Request {
	n := len(r.reqPool)
	if n == 0 {
		return r.newRequest(buf)
	}
	req := r.reqPool[n-1]
	r.reqPool[n-1] = nil
	r.reqPool = r.reqPool[:n-1]
	req.done.Init(r.W.K)
	req.buf = buf
	req.pooled = false
	return req
}

// newRequest is getRequest's pool-miss path. Records are carved from
// blocks, each as large as all the rank made before it (within bounds):
// a rank that posts every layer's broadcast up front takes a handful of
// allocations to get there, not one per request.
//
//go:noinline
func (r *Rank) newRequest(buf *gpu.Buffer) *Request {
	if len(r.reqBlock) == 0 {
		n := min(max(r.reqsMade, 4), 16)
		r.reqsMade += n
		r.reqBlock = make([]Request, n)
	}
	req := &r.reqBlock[0]
	r.reqBlock = r.reqBlock[1:]
	req.buf = buf
	req.Done = &req.done
	req.done.Init(r.W.K)
	return req
}

// putRequest recycles a settled request. Double releases are absorbed
// (a request waited twice settles once).
func (r *Rank) putRequest(req *Request) {
	if req.pooled {
		return
	}
	req.pooled = true
	req.buf = nil
	req.deferred = nil
	req.summed = nil
	req.next = nil
	r.reqPool = append(r.reqPool, req)
}

// getPendingSend draws an unexpected-message record from the rank's
// free list; the cold miss path allocates.
func (r *Rank) getPendingSend() *pendingSend {
	n := len(r.psPool)
	if n == 0 {
		return newPendingSend()
	}
	ps := r.psPool[n-1]
	r.psPool[n-1] = nil
	r.psPool = r.psPool[:n-1]
	return ps
}

// newPendingSend is getPendingSend's pool-miss path.
func newPendingSend() *pendingSend { return &pendingSend{} }

func (r *Rank) putPendingSend(ps *pendingSend) {
	*ps = pendingSend{}
	r.psPool = append(r.psPool, ps)
}

// Wait blocks the rank until the request completes, then releases the
// request record back to the rank's free list: as in MPI_Wait, the
// handle must not be used after Wait returns (Test/CompletedAt remain
// readable only until the rank issues its next operation). For
// deferred (CPU-progressed) requests this is where all the work
// happens. With a fault plane armed the wait is deadline-sliced and
// may panic with Revoked{} if a rank failure is detected (see
// fault.go) — an unwound request is abandoned to the collector, never
// recycled. Like every blocking MPI call it belongs to the rank's main
// proc.
func (r *Rank) Wait(req *Request) {
	if req.deferred != nil {
		fn := req.deferred
		req.deferred = nil
		fn()
		req.Done.Fire()
		r.putRequest(req)
		return
	}
	r.wait(req.Done)
	r.putRequest(req)
}

// Test reports whether the request has completed without blocking.
// Deferred requests never complete under Test (CPU progression
// requires Wait), which is exactly the paper's complaint about NBC
// reductions.
func (req *Request) Test() bool { return req.deferred == nil && req.Done.Fired() }

// Deferred reports whether the request is CPU-progressed: its work runs
// inside Wait, on the waiting proc's stack, so a Stepper cannot poll it.
func (req *Request) Deferred() bool { return req.deferred != nil }

// OnComplete registers fn to run (in kernel context) when the request
// completes; if it already completed, fn is scheduled immediately.
// Deferred (CPU-progressed) requests complete only inside Wait, so
// their hooks fire there — the same asymmetry the rest of the runtime
// models. The scheduler uses these hooks for node readiness and for
// recording wire-level spans of offloaded operations. The hook runs at
// the completion instant but possibly after the waiter has released
// the request, so it must not touch the request handle.
func (req *Request) OnComplete(fn func()) { req.Done.OnFire(fn) }

// CompletedAt returns the virtual time at which the request completed;
// only meaningful once Test (or a hook) reports completion.
func (req *Request) CompletedAt() sim.Time { return req.Done.FiredAt() }

// NewDeferredRequest creates a request whose work runs inside Wait.
// Exposed for package coll's CPU-progressed Ireduce.
func (r *Rank) NewDeferredRequest(fn func()) *Request {
	req := r.getRequest(nil)
	req.deferred = fn
	return req
}

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
		req.Done.Fire()
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
// recycled in the meantime).
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
	// replay marks a landing already perturbed once (held or stashed):
	// it lands without consulting the wire plane again. ghost marks a
	// duplicate landing, which re-copies under generation guards but
	// never settles the integrity handle.
	replay bool
	ghost  bool
}

// RunEvent implements sim.Runnable.
func (d *delivery) RunEvent(k *sim.Kernel) {
	w := d.sender.W
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
		d.recvReq.Done.FireIf(d.recvGen)
		d.sendReq.Done.FireIf(d.sendGen)
		w.putDelivery(d)
		return
	}
	if w.Fault.WireArmed() && !d.replay && !w.perturbDelivery(d, k.Now()) {
		return
	}
	d.recvReq.buf.CopyFrom(d.src)
	if s := d.summed; s != nil {
		s.deliver(d.sender, d.mode)
	}
	d.recvReq.Done.FireIf(d.recvGen)
	d.sendReq.Done.FireIf(d.sendGen)
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

// SendHost / RecvHost move host-resident buffers (no GPU endpoints);
// used by the non-CUDA-aware baselines.
func (r *Rank) SendHost(c *Comm, to, tag int, buf *gpu.Buffer) {
	r.Send(c, to, tag, buf, topology.ModeHost)
}

// RecvHost is the receiving half of SendHost.
func (r *Rank) RecvHost(c *Comm, from, tag int, buf *gpu.Buffer) {
	r.Recv(c, from, tag, buf)
}
