package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
)

// tunedReducer is HR (Tuned): it carries the full set of candidate
// configurations and hands each call the fragment of the combination
// the tuning table selects for (message size, process count). This
// mirrors the MVAPICH2-GDR 2.2 tuning infrastructure described in
// Section 5. The candidates share a state table.
type tunedReducer struct {
	*reducer
	c        *mpi.Comm
	binomial Reducer
	chain    Reducer
	cc       Reducer
	cb       Reducer
}

func newTuned(c *mpi.Comm, o Options) *tunedReducer {
	tab := &stateTable{}
	t := &tunedReducer{c: c, binomial: flat(Binomial, o, tab, c), chain: flat(Chain, o, tab, c)}
	if c.Size() > o.ChainSize {
		t.cc = newHierarchical(c, o, ChainChain, tab)
		t.cb = newHierarchical(c, o, ChainBinomial, tab)
	}
	t.reducer = &reducer{Tuned.String(), tab, func(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan {
		return t.Select(buf.Bytes).Fragment(r, buf)
	}}
	return t
}

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
