package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// tunedReducer is HR (Tuned): it carries the full set of candidate
// configurations and dispatches each call to the combination the
// tuning table selects for (message size, process count). This mirrors
// the MVAPICH2-GDR 2.2 tuning infrastructure described in Section 5.
type tunedReducer struct {
	c        *mpi.Comm
	binomial Reducer
	chain    Reducer
	cc       Reducer
	cb       Reducer
}

func newTuned(c *mpi.Comm, o Options) *tunedReducer {
	t := &tunedReducer{c: c}
	t.binomial = &binomialReducer{c: c, o: o}
	t.chain = &chainReducer{c: c, o: o}
	if c.Size() > o.ChainSize {
		t.cc = newHierarchical(c, o, Chain)
		t.cb = newHierarchical(c, o, Binomial)
	}
	return t
}

func (t *tunedReducer) Name() string { return "HR(tuned)" }

// Select returns the algorithm the tuning table picks for a message of
// the given size on this communicator. The rules encode the paper's
// findings: binomial for small messages (Eq. 1 wins when t(b) is
// latency-dominated), a single chain up to the ideal chain length,
// chain-of-chain up to 64 processes, chain-binomial beyond.
func (t *tunedReducer) Select(bytes int64) Reducer {
	size := t.c.Size()
	switch {
	case bytes < 512<<10 || size <= 2:
		return t.binomial
	case size <= 8 || t.cc == nil:
		return t.chain
	case size <= 64:
		return t.cc
	default:
		return t.cb
	}
}

func (t *tunedReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	t.Select(buf.Bytes).Reduce(r, buf, tag)
}
