package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
)

// Per-call scratch reuse. Every reducer owns a stateTable — one for all
// its levels and candidates — with one rankState per world rank, made
// when the first rank calls and reused by every call after it: receive
// scratch buffers, chunk/segment views, the walk through the fragment,
// so a steady-state reduction allocates nothing. Reuse never changes
// observable behavior: scratch buffers are only ever receive
// destinations (fully overwritten by the delivery copy before they are
// read), and views are immutable headers over the caller's buffer.
//
// Nothing here is found by hashing. A collective asks for the same
// views of a buffer in the same order every time it is called on it —
// the chain's chunk 0, 1, 2, … of n; a ring's segments step by step — so
// a buffer's views are remembered in the order the first call asked for
// them and a later call reads them off by position, checking the
// extents; the few buffers a rank reduces are told apart by pointer, and
// the one or two scratch shapes a call uses by looking at the free
// buffers themselves.

// rankState is one rank's reusable per-call resources for one reducer.
// Procs of different ranks interleave inside a reducer, so state is held
// per rank; within a rank, calls — and a call's levels — are sequential.
type rankState struct {
	scratch []*gpu.Buffer // free scratch buffers, the last released on top

	bufs   []bufViews   // the views of every buffer the rank has reduced here
	cur    *bufViews    // the buffer the call in progress takes views of; nil before its first
	k      int          // views of it the call has taken
	next   int          // where the search for a call's buffer starts: after the last one's
	block  []gpu.Buffer // what is left of the block new views are carved from
	carved int          // views carved so far

	// The walk at the tier in progress: its communicator, the rank's and
	// its root's group ranks, stages begun, the stage's accumulator,
	// received operand and checksum, Rabenseifner's segment, and the
	// requests nodes await: the stage's receive and send, chain forwards.
	c        *mpi.Comm
	me, root int
	j        int
	acc, op  *gpu.Buffer
	sum      *mpi.Summed
	lo, hi   int
	req      [2]*mpi.Request
	fwds     []*mpi.Request
	verify   func() // sum.Verify, made at the first mismatch

	// walk is the rank's walk with this reducer: Reduce's through the
	// rank's fragment, or ReduceLatency's through its driver's plan, which
	// splices the fragment.
	walk sched.Walk
}

// bufViews remembers the views one call after another takes of a buffer,
// in the order they are taken.
type bufViews struct {
	buf   *gpu.Buffer
	views []memoView
}

type memoView struct {
	lo, hi int
	v      *gpu.Buffer
}

// stateTable lazily holds one rankState per rank, and the fragments the
// reducer has compiled and what compiles them.
type stateTable struct {
	sts   []rankState
	frags map[role]*sched.Plan
	b     *builder // what compiles them
}

// acquire returns rank me's state, of a table for size ranks, with the
// call's views and walk starting over.
func (t *stateTable) acquire(size, me int) *rankState {
	if t.sts == nil {
		t.sts, t.frags = newStates(size), map[role]*sched.Plan{}
	}
	st := &t.sts[me]
	st.cur, st.j, st.req, st.fwds = nil, 0, [2]*mpi.Request{}, st.fwds[:0]
	return st
}

// newStates is a table's storage, made when the first rank calls.
//
//go:noinline
func newStates(size int) []rankState { return make([]rankState, size) }

// begin starts the call's next stage and returns its number.
func (st *rankState) begin() int {
	st.j++
	return st.j - 1
}

// recv posts the stage's checksummed receive into buf.
func (st *rankState) recv(x *sched.Ctx, from, tag int, buf *gpu.Buffer) {
	st.req[0], st.sum = x.R.IrecvSummed(st.c, from, tag, buf)
}

// settled reports whether the stage's receive checksum is settled; on a
// mismatch it hands Summed.Verify, which waits on the wire, to the lane's
// goroutine, and the node asks again.
func (st *rankState) settled(x *sched.Ctx) bool {
	if st.sum.TryVerify() {
		return true
	}
	if st.verify == nil {
		st.verify = func() {
			st.sum.Verify()
			st.sum = nil
		}
	}
	x.HandBack(st.verify)
	return false
}

// getScratch returns a scratch buffer shaped like `like` (payload
// present iff it has one) from the free ones, or allocates on miss. A
// call asks for one or two shapes over and over, so the fit is almost
// always the buffer released last.
func (st *rankState) getScratch(like *gpu.Buffer) *gpu.Buffer {
	free := st.scratch
	for i := len(free) - 1; i >= 0; i-- {
		if b := free[i]; b.Bytes == like.Bytes && (b.Data != nil) == (like.Data != nil) {
			last := len(free) - 1
			free[i], free[last] = free[last], nil
			st.scratch = free[:last]
			return b
		}
	}
	if like.Data != nil {
		return gpu.NewDataBuffer(like.Elems())
	}
	return gpu.NewBuffer(like.Bytes)
}

// putScratch returns a scratch buffer to the free ones. The buffer
// must not be a receive destination of any still-in-flight operation.
func (st *rankState) putScratch(b *gpu.Buffer) {
	st.scratch = append(st.scratch, b)
}

// view returns the immutable view of buf[lo:hi): the one an earlier call
// took at this point of its walk over buf, or a new one that later calls
// will find here. Views are shared freely: the header is never mutated.
func (st *rankState) view(buf *gpu.Buffer, lo, hi int) *gpu.Buffer {
	if st.cur == nil || st.cur.buf != buf {
		st.open(buf)
	}
	k := st.k
	st.k++
	if vs := st.cur.views; k < len(vs) && vs[k].lo == lo && vs[k].hi == hi {
		return vs[k].v
	}
	return st.newView(k, lo, hi)
}

// open points the call at buf's views. A rank reduces the same buffers
// in the same order iteration after iteration, so the search starts
// behind the buffer of the call before and nearly always ends there.
func (st *rankState) open(buf *gpu.Buffer) {
	n := len(st.bufs)
	for i, j := 0, st.next; i < n; i, j = i+1, j+1 {
		if j >= n {
			j = 0
		}
		if st.bufs[j].buf == buf {
			st.cur, st.k, st.next = &st.bufs[j], 0, j+1
			return
		}
	}
	st.bufs = append(st.bufs, bufViews{buf: buf})
	st.cur, st.k, st.next = &st.bufs[n], 0, 0
}

// newView makes the view the call takes k-th of its buffer and remembers
// it there. Views are carved from blocks, each as large as all before it
// (within bounds). A view already handed out is never written again: if
// a call asks for other extents than the one before it did, the place
// gets a fresh view.
//
//go:noinline
func (st *rankState) newView(k, lo, hi int) *gpu.Buffer {
	if len(st.block) == 0 {
		n := min(max(st.carved, 4), 64)
		st.carved += n
		st.block = make([]gpu.Buffer, n)
	}
	v := &st.block[0]
	st.block = st.block[1:]
	m := st.cur
	*v = m.buf.View(lo, hi)
	if k < len(m.views) {
		m.views[k] = memoView{lo, hi, v}
	} else {
		m.views = append(m.views, memoView{lo, hi, v})
	}
	return v
}

// chunkBounds returns the element extents of pipeline chunk j of n
// over elems elements (the chain reducers' chunking rule).
func chunkBounds(elems, n, j int) (lo, hi int) {
	per := (elems + n - 1) / n
	lo = j * per
	hi = lo + per
	if hi > elems {
		hi = elems
	}
	return
}
