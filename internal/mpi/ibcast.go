package mpi

import (
	"fmt"
	"math"
	"math/bits"

	"scaffe/internal/gpu"
	"scaffe/internal/topology"
)

// The Ibcast engine models MPI-3 non-blocking broadcast with
// network/hardware offload: once every participating rank has posted
// its call, data moves down a binomial tree driven entirely by kernel
// callbacks — the rank processes keep computing, which is what gives
// SC-OB its overlap. Matching across ranks follows MPI semantics:
// the i-th Ibcast call on a communicator at every rank belongs to the
// same operation.
//
// Operation records are pooled on the world, and each tree edge is an
// ordinary delivery (p2p.go) from the parent's rank to the child's, so a
// steady-state broadcast allocates nothing and its edges meet the same
// wire faults and epoch fence as every other landing. An op keeps one
// pointer per rank, its request slot (bcastOp.reqs), and one buffer
// descriptor for the whole tree unless some rank's buffer carries a
// payload: a payload-free buffer is its size (gpu.Buffer), so at 1,024
// ranks an op is 8 bytes a rank. Completion is tracked by posted/fired
// counters instead of scanning requests: a rank's request may be waited,
// released, and recycled long before the op's other subtrees drain, so
// the op must never read a request after firing it.

type bcastKey struct {
	comm int
	seq  int
}

type bcastOp struct {
	c     *Comm
	key   bcastKey
	root  int // group rank
	bytes int64
	mode  topology.TransferMode

	// reqs is each group rank's slot: nil until the rank posts, its
	// request until that fires, then fired. A rank is posted iff its
	// slot is set, and ready (its buffer holds the data) iff it has
	// fired or is the root and has posted.
	reqs []*Request
	// buf is the first buffer posted. bufs holds every posted rank's
	// buffer, by group rank, but only once some rank posts a buffer that
	// carries a payload; until then every rank's buffer reads as buf
	// (bufOf).
	buf  *gpu.Buffer
	bufs []*gpu.Buffer

	postedCount int // ranks that have posted their call
	firedCount  int // requests fired (each rank's exactly once)

	rootSends int // the root's child edges not yet landed
}

// fired fills a rank's request slot once its request has fired: the
// request belongs to its rank again, and the slot still reads posted.
var fired = new(Request)

// getBcastOp draws an n-rank operation record from the world free
// list, clearing recycled per-rank state, or makes one: the record and
// its request slots, two objects. A payload-carrying broadcast adds its
// buffer slice the first time the record carries one.
func (w *World) getBcastOp(n int) *bcastOp {
	var op *bcastOp
	if m := len(w.bcastPool); m > 0 {
		op = w.bcastPool[m-1]
		w.bcastPool[m-1] = nil
		w.bcastPool = w.bcastPool[:m-1]
	}
	if op == nil {
		op = &bcastOp{}
	}
	if cap(op.reqs) < n {
		op.reqs = make([]*Request, n)
	} else {
		op.reqs = op.reqs[:n]
		clear(op.reqs)
	}
	op.buf, op.bufs = nil, op.bufs[:0]
	op.postedCount, op.firedCount, op.rootSends = 0, 0, 0
	return op
}

// posted reports whether group rank i has posted its call.
func (op *bcastOp) posted(i int) bool { return op.reqs[i] != nil }

// ready reports whether group rank i's buffer holds the data: the root's
// from its post, any other rank's from the instant its edge commits and
// fires its request.
func (op *bcastOp) ready(i int) bool {
	return op.reqs[i] == fired || i == op.root && op.reqs[i] != nil
}

// bufOf returns the buffer group rank i posted.
func (op *bcastOp) bufOf(i int) *gpu.Buffer {
	if len(op.bufs) > 0 {
		return op.bufs[i]
	}
	return op.buf
}

// setBuf records the buffer group rank i posts. Payload-free buffers of
// the op's size are interchangeable, so they need no record past the
// first; the first payload makes the per-rank slice, filling in the
// shared descriptor for the ranks already posted.
func (op *bcastOp) setBuf(i int, buf *gpu.Buffer) {
	if op.buf == nil {
		op.buf = buf
	}
	if len(op.bufs) == 0 {
		if buf.Data == nil {
			return
		}
		n := len(op.reqs)
		if cap(op.bufs) < n {
			op.bufs = make([]*gpu.Buffer, n)
		} else {
			op.bufs = op.bufs[:n]
		}
		for j := range op.bufs {
			op.bufs[j] = nil
			if op.posted(j) {
				op.bufs[j] = op.buf
			}
		}
	}
	op.bufs[i] = buf
}

func (w *World) putBcastOp(op *bcastOp) {
	op.c = nil
	w.bcastPool = append(w.bcastPool, op)
}

// Ibcast posts this rank's participation in a non-blocking broadcast
// rooted at group rank `root` of comm c. On the root, buf supplies the
// data; elsewhere it receives it. The returned request completes when
// this rank's buffer is ready for reuse (root: all its tree sends
// done; non-root: data arrived).
func (r *Rank) Ibcast(c *Comm, root int, buf *gpu.Buffer, mode topology.TransferMode) *Request {
	r.ftCheck()
	me := c.Rank(r)
	key := bcastKey{comm: c.id, seq: c.bcastSeq[me]}
	c.bcastSeq[me]++

	op := r.W.bcastOps[key]
	if op == nil {
		op = r.W.getBcastOp(c.Size())
		op.c, op.key, op.root = c, key, root
		op.bytes, op.mode = buf.Bytes, mode
		r.W.bcastOps[key] = op
	}
	if op.root != root {
		panic(fmt.Sprintf("mpi: Ibcast root mismatch on comm %d op %d: %d vs %d", c.id, key.seq, op.root, root))
	}
	if op.bytes != buf.Bytes {
		panic(fmt.Sprintf("mpi: Ibcast size mismatch on comm %d op %d: %d vs %d bytes", c.id, key.seq, op.bytes, buf.Bytes))
	}

	req := r.getRequest(buf)
	op.setBuf(me, buf)
	op.reqs[me] = req
	op.postedCount++

	if me == root {
		op.children(root, func(int) { op.rootSends++ })
		op.sendDown(r.W, me)
		if op.rootSends == 0 {
			op.fireReq(root)
		}
	} else {
		// A newly posted child may unblock a ready parent's edge.
		parent := op.parent(me)
		if op.ready(parent) {
			op.send(r.W, parent, me, 0)
		}
	}
	op.maybeComplete(r.W)
	return req
}

// parent returns the binomial-tree parent of a non-root group rank: its
// root-relative rank with the lowest set bit cleared.
func (op *bcastOp) parent(me int) int {
	n := len(op.reqs)
	rel := (me - op.root + n) % n
	return (rel&(rel-1) + op.root) % n
}

// children calls fn on each binomial-tree child of group rank me,
// largest subtree first (the send order MPI uses): root-relative rank
// rel's children are rel+m for each power of two m below rel's lowest
// set bit, or below the tree's size for the root, that stays in it.
func (op *bcastOp) children(me int, fn func(child int)) {
	n := len(op.reqs)
	rel := (me - op.root + n) % n
	low := rel & -rel
	if rel == 0 {
		low = 1 << bits.Len(uint(n-1))
	}
	for m := low >> 1; m > 0; m >>= 1 {
		if rel+m < n {
			fn((rel + m + op.root) % n)
		}
	}
}

// fireReq fires group rank i's request exactly once and drops the
// reference for the fired sentinel: the request belongs to its rank,
// which may recycle it the moment its waiter resumes, so the op must
// never touch it again.
func (op *bcastOp) fireReq(i int) {
	req := op.reqs[i]
	if req == nil || req == fired {
		return
	}
	op.reqs[i] = fired
	op.firedCount++
	req.done.Fire()
}

// maybeComplete reclaims the op record once every rank has posted and
// every request has fired.
func (op *bcastOp) maybeComplete(w *World) {
	if op.postedCount == len(op.reqs) && op.firedCount == len(op.reqs) {
		delete(w.bcastOps, op.key)
		w.putBcastOp(op)
	}
}

// sendDown sends a ready rank's data to every already-posted child.
func (op *bcastOp) sendDown(w *World, me int) {
	op.children(me, func(child int) {
		if op.posted(child) {
			op.send(w, me, child, 0)
		}
	})
}

// send books the parent->child transfer (parent data and child buffer
// are both available) and schedules its landing, the try-th for the
// edge, as a delivery.
func (op *bcastOp) send(w *World, parent, child, try int) {
	from, to := op.c.rankAt(parent), op.c.rankAt(child)
	_, end := w.Cluster.Transfer(w.K.Now(), from.Dev.ID, to.Dev.ID, op.bytes, op.mode)
	d := w.getDelivery()
	d.sender, d.recv, d.src, d.mode = from, to, op.bufOf(parent), op.mode
	d.op, d.key, d.parent, d.child, d.try = op, op.key, int32(parent), int32(child), int32(try)
	d.epoch = w.epoch
	w.K.AtRun(end, d)
}

// land copies a landed edge's payload into the child's buffer and
// commits the edge, behind a checksum when the integrity plane is
// armed. The delivery is released first, so the first edge the commit
// sends on reuses it.
func (op *bcastOp) land(w *World, d *delivery) {
	parent, child, try := int(d.parent), int(d.child), int(d.try)
	op.bufOf(child).CopyFrom(d.src)
	w.putDelivery(d)
	if w.integrityArmed() {
		op.verifyEdge(w, parent, child, try)
		return
	}
	op.commitEdge(w, parent, child)
}

// commitEdge records a delivered parent->child edge: the child's
// request fires, which makes its buffer a source for its own children,
// and the root's request fires once its last child edge lands.
func (op *bcastOp) commitEdge(w *World, parent, child int) {
	op.fireReq(child)
	op.sendDown(w, child)
	if parent == op.root {
		op.rootSends--
		if op.rootSends == 0 {
			op.fireReq(op.root)
		}
	}
	op.maybeComplete(w)
}

// verifyEdge is commitEdge behind a checksum: it applies any armed
// wire corruption on the link, compares the child's payload against
// the parent's, and either commits, sends the edge again (recover mode,
// within budget), or escalates by revoking the communicator. It runs in
// kernel context, so escalation cannot panic — the waiting ranks
// observe the revocation through their deadline-sliced waits.
func (op *bcastOp) verifyEdge(w *World, parent, child, try int) {
	integ := w.Integrity
	from, to := op.c.rankAt(parent), op.c.rankAt(child)
	dst := op.bufOf(child)
	detected := false
	if integ.WireCorrupt != nil && integ.WireCorrupt(from.ID, to.ID) {
		detected = true // timing mode: poison marker only
		if len(dst.Data) > 0 {
			dst.Data[0] = math.Float32frombits(math.Float32bits(dst.Data[0]) ^ 1<<30)
		}
	}
	if src := op.bufOf(parent); dst.Data != nil && src.Data != nil {
		detected = src.Checksum() != dst.Checksum()
	}
	if !detected {
		integ.Verified++
		op.commitEdge(w, parent, child)
		return
	}
	integ.Detected++
	if integ.Mode == IntegrityDetect {
		// Observe-only: the corrupted payload flows down the tree.
		op.commitEdge(w, parent, child)
		return
	}
	if try >= integ.RetryBudget {
		// Leave the edge uncommitted: every rank blocked on this broadcast
		// finds the plane revoked at its next deadline and unwinds into
		// the recovery rendezvous. A plane that cannot trip has no
		// deadline to find it with, and the run ends in a deadlock rather
		// than commit the damaged payload.
		integ.Escalations++
		w.Fault.Revoke()
		return
	}
	// The parent's buffer is stable for the life of the op, so the
	// retransmitted copy restores the clean bytes.
	integ.Retransmits++
	op.send(w, parent, child, try+1)
}
