package coll

import "scaffe/internal/mpi"

// tunedReducer is HR (Tuned): the full set of candidate configurations,
// of which each call gets the fragment of the one the tuning table
// selects for (message size, process count). This mirrors the
// MVAPICH2-GDR 2.2 tuning infrastructure described in Section 5. The
// candidates share a state table.
type tunedReducer struct {
	c                       *mpi.Comm
	binomial, chain, cc, cb *reducer
}

func newTuned(c *mpi.Comm, o Options) *tunedReducer {
	tab := &stateTable{o: o}
	t := &tunedReducer{c: c, binomial: flat(Binomial.String(), binomial, tab, c), chain: flat(Chain.String(), chain, tab, c)}
	if c.Size() > o.ChainSize {
		t.cc = newHierarchical(c, o, ChainChain, tab)
		t.cb = newHierarchical(c, o, ChainBinomial, tab)
	}
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
