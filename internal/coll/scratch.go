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
// A payload-free buffer is its size (gpu.Buffer), so a payload-free view
// or scratch buffer is the table's one descriptor of that size, whichever
// rank asks. Views of a payload alias the rank's data, and are the
// rank's. Nothing here is found by hashing but a change of size. A
// collective asks for the same views of a buffer in the same order every
// time it is called on it — the chain's chunk 0, 1, 2, … of n; a ring's
// segments step by step — so a buffer's views are remembered in the order
// the first call asked for them and a later call reads them off by
// position, checking the extents; the few buffers a rank reduces are told
// apart by pointer, and the one or two scratch shapes a call uses by
// looking at the free buffers themselves.

// rankState is one rank's reusable per-call resources for one reducer.
// Procs of different ranks interleave inside a reducer, so state is held
// per rank; within a rank, calls — and a call's levels — are sequential.
type rankState struct {
	tab     *stateTable
	sized   *gpu.Buffer   // the payload-free descriptor handed out last
	scratch []*gpu.Buffer // free payload scratch buffers, the last released on top

	bufs   []bufViews   // the views of every payload the rank has reduced here
	cur    *bufViews    // the buffer the call in progress takes views of; nil before its first
	k      int          // views of it the call has taken
	next   int          // where the search for a call's buffer starts: after the last one's
	block  []gpu.Buffer // what is left of the block new views are carved from
	carved int          // views carved so far

	// The call in progress: the rank's step list and the cursor in it,
	// its group rank at each level, the step's accumulator,
	// received operand and checksum, and the requests nodes await: the
	// step's receive, req[0], and the sends since the last join not yet
	// released, held in req[1] while there is one and in a slice grown
	// to the most in flight at once when there are more.
	levels  []level // the levels and bytes the rank's list is of
	bytes   int64
	frag    *compiled
	cursor  int
	me      [maxLevels]int32 // the rank's group rank at each level
	acc, op *gpu.Buffer
	sum     *mpi.Summed
	req     [2]*mpi.Request
	sends   []*mpi.Request

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

// stateTable lazily holds one rankState per rank, the payload-free
// descriptors its ranks share, and the step lists the reducer has
// compiled, by hash, with their fragments' callbacks; and the options of
// the reducer, all of whose levels and candidates share it.
type stateTable struct {
	o       Options
	sts     []rankState
	sizes   map[int64]*gpu.Buffer // the one payload-free descriptor of each size
	frags   map[uint64]*compiled
	nodes   *nodes
	scratch []step // the list being resolved
}

// acquire returns rank me's state, of a table for size ranks, with the
// call's views and walk starting over.
func (t *stateTable) acquire(size, me int) *rankState {
	if t.sts == nil {
		t.sts, t.sizes, t.frags = newStates(size), map[int64]*gpu.Buffer{}, map[uint64]*compiled{}
		t.nodes = &nodes{t.begin, t.settle, t.reduce, t.stage, t.upload, t.received, t.sent}
	}
	st := &t.sts[me]
	if st.sends == nil {
		st.sends = st.req[1:1]
	}
	st.tab, st.cur, st.cursor, st.req[0], st.sends = t, nil, 0, nil, st.sends[:0]
	return st
}

// newStates is a table's storage, made when the first rank calls.
//
//go:noinline
func newStates(size int) []rankState { return make([]rankState, size) }

// post keeps rank r's send req for the next join, having released the
// sends kept before it that have completed (mpi.Rank.Reap), so a chain
// rank holds the chunk or two still in flight, not one request a chunk.
// A completed request's wait would cost the join no event, and the new
// send is always kept, so the join's events stay what they were.
func (st *rankState) post(r *mpi.Rank, req *mpi.Request) {
	live := st.sends[:0]
	for _, s := range st.sends {
		if !r.Reap(s) {
			live = append(live, s)
		}
	}
	st.sends = append(live, req)
}

// settled reports whether the step's receive checksum is settled. A
// mismatch that is retransmitted has the node wait for the retransfer
// and ask again (sched.Ctx.Again).
func (st *rankState) settled(x *sched.Ctx) bool {
	if !st.sum.Settle() {
		x.Again()
		return false
	}
	st.sum = nil
	return true
}

// getScratch returns a scratch buffer shaped like `like`: the table's
// descriptor if it is payload-free, else a free payload buffer of its
// size, allocated on miss. A call asks for one or two sizes over and
// over, so the fit is almost always the buffer released last.
func (st *rankState) getScratch(like *gpu.Buffer) *gpu.Buffer {
	if like.Data == nil {
		return st.size(like.Bytes)
	}
	free := st.scratch
	for i := len(free) - 1; i >= 0; i-- {
		if b := free[i]; b.Bytes == like.Bytes {
			last := len(free) - 1
			free[i], free[last] = free[last], nil
			st.scratch = free[:last]
			return b
		}
	}
	return gpu.NewDataBuffer(like.Elems())
}

// putScratch returns a payload scratch buffer to the free ones; a
// payload-free one is the table's and stays so. The buffer must not be
// a receive destination of any still-in-flight operation.
func (st *rankState) putScratch(b *gpu.Buffer) {
	if b.Data != nil {
		st.scratch = append(st.scratch, b)
	}
}

// size returns the table's payload-free descriptor of the given size.
// The rank asks for the size it asked for last nearly every time — a
// chunk's view, then its scratch — so only a change of size looks it up.
func (st *rankState) size(bytes int64) *gpu.Buffer {
	if b := st.sized; b != nil && b.Bytes == bytes {
		return b
	}
	b := st.tab.sizes[bytes]
	if b == nil {
		b = gpu.NewBuffer(bytes)
		st.tab.sizes[bytes] = b
	}
	st.sized = b
	return b
}

// view returns the immutable view of buf[lo:hi): for a payload-free buf
// the table's descriptor of its size, else the one an earlier call took
// at this point of its walk over buf, or a new one that later calls will
// find here. Views are shared freely: the header is never mutated.
func (st *rankState) view(buf *gpu.Buffer, lo, hi int) *gpu.Buffer {
	if buf.Data == nil {
		return st.size(int64(hi-lo) * 4)
	}
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
