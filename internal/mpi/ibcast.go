package mpi

import (
	"fmt"
	"math"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
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
// Operation records and their per-rank records are pooled on the world,
// and tree edges are scheduled as pooled sim.Runnable records, so a
// steady-state broadcast allocates nothing. Completion is tracked by
// posted/fired counters instead of scanning requests: a rank's request
// may be waited, released, and recycled long before the op's other
// subtrees drain, so the op must never read a request after firing it.

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

	ranks []bcastRank // by group rank

	postedCount int // ranks that have posted their call
	firedCount  int // requests fired (each rank's exactly once)

	rootSends     int // children edges not yet scheduled from the root
	rootCompleted bool

	// epoch stamps the membership epoch the op was created in; edges
	// landing against a later epoch dissolve (see World.bumpEpoch).
	epoch int
}

// getBcastOp draws an n-rank operation record from the world free
// list, clearing recycled per-rank state, or makes one: the record and
// its per-rank records, two objects.
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
	if cap(op.ranks) < n {
		op.ranks = make([]bcastRank, n)
	} else {
		op.ranks = op.ranks[:n]
		clear(op.ranks)
	}
	op.postedCount, op.firedCount = 0, 0
	op.rootSends, op.rootCompleted = 0, false
	return op
}

// bcastRank is one rank's part of a broadcast: whether it has posted its
// call and with what buffer and request, and whether and since when its
// buffer holds the data.
type bcastRank struct {
	posted, ready bool
	buf           *gpu.Buffer
	readyAt       sim.Time
	req           *Request
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
		op.epoch = r.W.epoch
		r.W.bcastOps[key] = op
	}
	if op.root != root {
		panic(fmt.Sprintf("mpi: Ibcast root mismatch on comm %d op %d: %d vs %d", c.id, key.seq, op.root, root))
	}
	if op.bytes != buf.Bytes {
		panic(fmt.Sprintf("mpi: Ibcast size mismatch on comm %d op %d: %d vs %d bytes", c.id, key.seq, op.bytes, buf.Bytes))
	}

	req := r.getRequest(buf)
	op.ranks[me] = bcastRank{posted: true, buf: buf, req: req}
	op.postedCount++

	if me == root {
		op.rootSends = op.countChildren(root)
		op.markReady(r.W, me, r.Now())
		if op.rootSends == 0 && !op.rootCompleted {
			op.rootCompleted = true
			op.fireReq(root)
		}
	} else {
		// A newly posted child may unblock a ready parent's edge.
		parent := op.parent(me)
		if op.ranks[parent].ready {
			op.scheduleEdge(r.W, parent, me)
		}
	}
	op.maybeComplete(r.W)
	return req
}

// relative converts a group rank to root-relative order.
func (op *bcastOp) relative(groupRank int) int {
	n := op.c.Size()
	return (groupRank - op.root + n) % n
}

func (op *bcastOp) absolute(rel int) int {
	n := op.c.Size()
	return (rel + op.root) % n
}

// parent returns the binomial-tree parent of a non-root group rank.
func (op *bcastOp) parent(groupRank int) int {
	rel := op.relative(groupRank)
	for mask := 1; mask < op.c.Size(); mask <<= 1 {
		if rel&mask != 0 {
			return op.absolute(rel - mask)
		}
	}
	panic("mpi: bcast parent of root")
}

// childMask returns the largest-subtree mask for a group rank: its
// binomial-tree children are rel+m for m = mask>>1, mask>>2, ... 1.
func (op *bcastOp) childMask(groupRank int) int {
	n := op.c.Size()
	rel := op.relative(groupRank)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			break
		}
		mask <<= 1
	}
	return mask
}

// countChildren returns the number of binomial-tree children.
func (op *bcastOp) countChildren(groupRank int) int {
	n := op.c.Size()
	rel := op.relative(groupRank)
	kids := 0
	for m := op.childMask(groupRank) >> 1; m > 0; m >>= 1 {
		if rel+m < n {
			kids++
		}
	}
	return kids
}

// fireReq fires group rank i's request exactly once and drops the
// reference: the request belongs to its rank, which may recycle it the
// moment its waiter resumes, so the op must never touch it again.
func (op *bcastOp) fireReq(i int) {
	req := op.ranks[i].req
	if req == nil {
		return
	}
	op.ranks[i].req = nil
	op.firedCount++
	req.Done.Fire()
}

// maybeComplete reclaims the op record once every rank has posted and
// every request has fired.
func (op *bcastOp) maybeComplete(w *World) {
	if op.postedCount == len(op.ranks) && op.firedCount == len(op.ranks) {
		delete(w.bcastOps, op.key)
		w.putBcastOp(op)
	}
}

// markReady records that a rank's buffer holds the data as of time t
// and schedules edges to every already-posted child, largest subtree
// first (the send order MPI uses).
func (op *bcastOp) markReady(w *World, groupRank int, t sim.Time) {
	op.ranks[groupRank].ready = true
	op.ranks[groupRank].readyAt = t
	n := op.c.Size()
	rel := op.relative(groupRank)
	for m := op.childMask(groupRank) >> 1; m > 0; m >>= 1 {
		if rel+m < n {
			child := op.absolute(rel + m)
			if op.ranks[child].posted {
				op.scheduleEdge(w, groupRank, child)
			}
		}
	}
}

// bcastEdge is the pooled payload of one parent->child tree transfer's
// landing event. w is carried on the edge because a ghost edge can
// outlive its op record (whose comm reference is cleared on pooling).
type bcastEdge struct {
	w             *World
	op            *bcastOp
	parent, child int
	try           int
	isRootEdge    bool
	// replay marks an edge already perturbed once (held or stashed);
	// ghost marks a duplicate landing, which re-copies the payload iff
	// the op is still live under its key but NEVER commits the edge
	// (committing twice would corrupt rootSends and re-mark readiness).
	replay   bool
	ghost    bool
	ghostKey bcastKey
	next     *bcastEdge // free-list link
}

// getBcastEdge draws an edge record from the world free list, or carves
// a new one.
func (w *World) getBcastEdge() *bcastEdge {
	e := w.edgeFree
	if e == nil {
		return w.edges.next()
	}
	w.edgeFree, e.next = e.next, nil
	return e
}

func (w *World) putBcastEdge(e *bcastEdge) {
	*e = bcastEdge{next: w.edgeFree}
	w.edgeFree = e
}

// RunEvent implements sim.Runnable: the edge's transfer has landed.
// The record is released before committing, because committing the
// final edge can reclaim the whole op.
func (e *bcastEdge) RunEvent(k *sim.Kernel) {
	w := e.w
	if e.ghost {
		// A duplicate landing after the original committed: re-copy only
		// while the op is still live under its key, and never commit —
		// the original already did.
		if op := w.bcastOps[e.ghostKey]; op == e.op {
			if src, dst := op.ranks[e.parent].buf, op.ranks[e.child].buf; src != nil && dst != nil {
				dst.CopyFrom(src)
			}
		}
		w.putBcastEdge(e)
		return
	}
	if e.op.epoch != w.epoch {
		w.Fault.NoteStaleDissolved()
		w.putBcastEdge(e)
		return
	}
	if w.Fault.WireArmed() && !e.replay && !w.perturbEdge(e, k.Now()) {
		return
	}
	op, parent, child, try, isRootEdge := e.op, e.parent, e.child, e.try, e.isRootEdge
	w.putBcastEdge(e)
	if src, dst := op.ranks[parent].buf, op.ranks[child].buf; src != nil && dst != nil {
		dst.CopyFrom(src)
	}
	if w.integrityArmed() {
		op.verifyEdge(w, parent, child, try, isRootEdge)
		return
	}
	op.commitEdge(w, child, isRootEdge)
}

// scheduleEdge books the parent->child transfer (parent data and child
// buffer are both available) and wires up delivery.
func (op *bcastOp) scheduleEdge(w *World, parent, child int) {
	from := op.c.rankAt(parent)
	to := op.c.rankAt(child)
	at := op.ranks[parent].readyAt
	if pt := w.K.Now(); pt > at {
		at = pt
	}
	_, end := w.Cluster.Transfer(at, from.Dev.ID, to.Dev.ID, op.bytes, op.mode)
	e := w.getBcastEdge()
	e.w = w
	e.op, e.parent, e.child, e.try, e.isRootEdge = op, parent, child, 0, parent == op.root
	w.K.AtRun(end, e)
}

// commitEdge records a delivered parent->child edge: the child's
// request fires, its buffer becomes a source for its own children, and
// the root's request fires once its last child edge lands.
func (op *bcastOp) commitEdge(w *World, child int, isRootEdge bool) {
	op.fireReq(child)
	op.markReady(w, child, w.K.Now())
	if isRootEdge {
		op.rootSends--
		if op.rootSends == 0 && !op.rootCompleted {
			op.rootCompleted = true
			op.fireReq(op.root)
		}
	}
	op.maybeComplete(w)
}

// verifyEdge is commitEdge behind a checksum: it applies any armed
// wire corruption on the link, compares the child's payload against
// the parent's, and either commits, retransmits (recover mode, within
// budget), or escalates by revoking the communicator. It runs in
// kernel context, so escalation cannot panic — the waiting ranks
// observe the revocation through their deadline-sliced waits.
func (op *bcastOp) verifyEdge(w *World, parent, child, try int, isRootEdge bool) {
	integ := w.Integrity
	from, to := op.c.rankAt(parent), op.c.rankAt(child)
	dst := op.ranks[child].buf
	detected := false
	if integ.WireCorrupt != nil && integ.WireCorrupt(from.ID, to.ID) {
		detected = true // timing mode: poison marker only
		if dst != nil && len(dst.Data) > 0 {
			dst.Data[0] = math.Float32frombits(math.Float32bits(dst.Data[0]) ^ 1<<30)
		}
	}
	if dst != nil && dst.Data != nil {
		if src := op.ranks[parent].buf; src != nil && src.Data != nil {
			detected = src.Checksum() != dst.Checksum()
		}
	}
	if !detected {
		integ.Verified++
		op.commitEdge(w, child, isRootEdge)
		return
	}
	integ.Detected++
	if integ.Mode == IntegrityDetect {
		// Observe-only: the corrupted payload flows down the tree.
		op.commitEdge(w, child, isRootEdge)
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
	integ.Retransmits++
	op.retransmitEdge(w, parent, child, try+1, isRootEdge)
}

// retransmitEdge books a fresh parent->child transfer of the same
// payload and re-verifies on landing. The parent's buffer is stable
// for the life of the op, so re-copying it restores the clean bytes.
func (op *bcastOp) retransmitEdge(w *World, parent, child, try int, isRootEdge bool) {
	from, to := op.c.rankAt(parent), op.c.rankAt(child)
	_, end := w.Cluster.Transfer(w.K.Now(), from.Dev.ID, to.Dev.ID, op.bytes, op.mode)
	e := w.getBcastEdge()
	e.w = w
	e.op, e.parent, e.child, e.try, e.isRootEdge = op, parent, child, try, isRootEdge
	w.K.AtRun(end, e)
}
