package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// Per-call scratch reuse. Every reducer instance owns a stateTable:
// one rankState per member group rank, made when the first rank calls
// and reused for every call after it. The state carries the three
// per-invocation resources the algorithms used to allocate every time —
// receive scratch buffers, chunk/segment descriptor views, and the
// in-flight send-request list — so a steady-state reduction allocates
// nothing.
//
// Reuse never changes observable behavior: scratch buffers are only
// ever receive destinations (fully overwritten by the delivery copy
// before they are read), views are immutable headers over the caller's
// buffer, and the request slice is reset before each use. Virtual
// timing is untouched, so golden traces and losses stay bit-identical.
//
// Nothing here is found by hashing. A collective asks for the same
// views of a buffer in the same order every time it is called on it —
// the chain's chunk 0, 1, 2, … of n; a ring's segments step by step — so
// a buffer's views are remembered in the order the first call asked for
// them and a later call reads them off by position, checking the
// extents; the few buffers a rank reduces are told apart by pointer, and
// the one or two scratch shapes a call uses by looking at the free
// buffers themselves.

// rankState is one group rank's reusable per-call resources for one
// reducer instance. Procs of different ranks interleave inside one
// reducer, so state is held per rank; within a rank, calls are
// sequential (busy guards the unexpected re-entrant case).
type rankState struct {
	busy    bool
	scratch []*gpu.Buffer  // free scratch buffers, the last released on top
	sreqs   []*mpi.Request // the chain's forwards in flight

	bufs   []bufViews   // the views of every buffer the rank has reduced here
	cur    *bufViews    // the buffer the call in progress takes views of; nil before its first
	k      int          // views of it the call has taken
	next   int          // where the search for a call's buffer starts: after the last one's
	block  []gpu.Buffer // what is left of the block new views are carved from
	carved int          // views carved so far

	// step is the rank's walk through the current call, for the reducers
	// that run as steps on the event loop (chain, binomial).
	step stepState
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

// stateTable lazily holds one rankState per group rank.
type stateTable struct {
	sts []rankState
}

// acquire returns the calling rank's state, marking it busy for the
// duration of the collective. A re-entrant call on the same rank
// (never produced by the shipped algorithms) degrades to a transient
// state rather than corrupting in-flight scratch.
func (t *stateTable) acquire(size, me int) *rankState {
	if t.sts == nil {
		t.sts = newStates(size)
	}
	st := &t.sts[me]
	if st.busy {
		st = &rankState{}
	}
	st.busy = true
	st.cur = nil
	return st
}

// newStates is a table's storage, made when the first rank calls.
//
//go:noinline
func newStates(size int) []rankState { return make([]rankState, size) }

func (st *rankState) release() { st.busy = false }

// roomForForwards sizes the chain's request list for a call of n chunks,
// every one of whose forwards is in flight before the first is waited.
//
//go:noinline
func (st *rankState) roomForForwards(n int) { st.sreqs = make([]*mpi.Request, 0, n) }

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
	return newLike(like)
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
