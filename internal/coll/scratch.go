package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// Per-call scratch reuse. Every reducer instance owns a stateTable:
// one rankState per member group rank, created on that rank's first
// Reduce and reused for every call after it. The state carries the
// three per-invocation resources the algorithms used to allocate every
// time — receive scratch buffers, chunk/segment descriptor views, and
// the in-flight send-request list — so a steady-state reduction
// allocates nothing.
//
// Reuse never changes observable behavior: scratch buffers are only
// ever receive destinations (fully overwritten by the delivery copy
// before they are read), views are immutable headers over the caller's
// buffer and are cached by exact (buffer, lo, hi) extents, and the
// request slice is reset before each use. Virtual timing is untouched,
// so golden traces and losses stay bit-identical.
//
// All methods tolerate a nil receiver by falling back to transient
// allocation — the stateless exported entry points (RingAllreduce,
// ReduceScatterGather, BcastScatterAllgather) pass nil.

// scratchKey identifies a scratch shape: exact logical size plus
// whether it carries a real payload.
type scratchKey struct {
	bytes   int64
	payload bool
}

// viewKey identifies a cached sub-buffer view by parent identity and
// exact element extents.
type viewKey struct {
	buf    *gpu.Buffer
	lo, hi int
}

// rankState is one group rank's reusable per-call resources for one
// reducer instance. Procs of different ranks interleave inside one
// reducer, so state is held per rank; within a rank, calls are
// sequential (busy guards the unexpected re-entrant case).
type rankState struct {
	busy    bool
	scratch map[scratchKey][]*gpu.Buffer
	views   map[viewKey]*gpu.Buffer
	sreqs   []*mpi.Request // the chain's forwards in flight

	// step is the rank's walk through the current call, for the reducers
	// that run as steps on the event loop (chain, binomial).
	step stepState
}

// newRankState is acquire's first-call path for a rank.
//
//scaffe:coldpath first-call construction of a rank's reusable state; steady state reuses it
func newRankState() *rankState {
	return &rankState{
		scratch: make(map[scratchKey][]*gpu.Buffer),
		views:   make(map[viewKey]*gpu.Buffer),
	}
}

// stateTable lazily holds one rankState per group rank.
type stateTable struct {
	sts []*rankState
}

// acquire returns the calling rank's state, marking it busy for the
// duration of the collective. A re-entrant call on the same rank
// (never produced by the shipped algorithms) degrades to a transient
// state rather than corrupting in-flight scratch.
func (t *stateTable) acquire(size, me int) *rankState {
	if t.sts == nil {
		//scaffe:nolint hotpath first-call table construction; steady state takes the filled-slot path
		t.sts = make([]*rankState, size)
	}
	st := t.sts[me]
	if st == nil {
		st = newRankState()
		t.sts[me] = st
	}
	if st.busy {
		return newRankState()
	}
	st.busy = true
	return st
}

func (st *rankState) release() { st.busy = false }

// getScratch returns a scratch buffer shaped like `like` (payload
// present iff it has one) from the free stack, or allocates on miss.
//
//scaffe:hotpath
func (st *rankState) getScratch(like *gpu.Buffer) *gpu.Buffer {
	if st == nil {
		return newLike(like)
	}
	key := scratchKey{bytes: like.Bytes, payload: like.Data != nil}
	stack := st.scratch[key]
	n := len(stack)
	if n == 0 {
		return newLike(like)
	}
	b := stack[n-1]
	stack[n-1] = nil
	st.scratch[key] = stack[:n-1]
	return b
}

// putScratch returns a scratch buffer to its free stack. The buffer
// must not be a receive destination of any still-in-flight operation.
func (st *rankState) putScratch(b *gpu.Buffer) {
	if st == nil {
		return
	}
	key := scratchKey{bytes: b.Bytes, payload: b.Data != nil}
	//scaffe:nolint hotpath pool release; append reuses capacity freed by the matching getScratch
	st.scratch[key] = append(st.scratch[key], b)
}

// view returns the cached immutable view of buf[lo:hi), creating it on
// first use. Views are shared freely: the header is never mutated, so
// identical extents across iterations reuse one record.
//
//scaffe:hotpath
func (st *rankState) view(buf *gpu.Buffer, lo, hi int) *gpu.Buffer {
	if st == nil {
		//scaffe:coldpath stateless fallback allocates transiently by documented design
		return buf.Slice(lo, hi)
	}
	key := viewKey{buf: buf, lo: lo, hi: hi}
	if v := st.views[key]; v != nil {
		return v
	}
	//scaffe:coldpath first-use view creation; the views cache serves every later call
	v := buf.Slice(lo, hi)
	st.views[key] = v
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
