package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// reduceScatterGather implements Rabenseifner's reduce algorithm for
// power-of-two communicators: recursive-halving reduce-scatter
// followed by a binomial gather to root (group rank 0). It is the
// classic bandwidth-optimal alternative to both Eq. (1) and Eq. (2)
// — total traffic 2·b·(P−1)/P per rank versus the binomial tree's
// b·log2(P) — included for the algorithm-comparison experiments.
//
// Tags tag..tag+1 are reserved.
func reduceScatterGather(c *mpi.Comm, r *mpi.Rank, buf *gpu.Buffer, tag int, o Options, st *rankState) {
	size := c.Size()
	if size == 1 {
		return
	}
	me := c.Rank(r)
	elems := buf.Elems()

	// Recursive halving: at step k (distance d = size>>k+...), each
	// pair exchanges the half of the current segment the peer is
	// responsible for and reduces the half it keeps.
	lo, hi := 0, elems
	for dist := size / 2; dist >= 1; dist /= 2 {
		peer := me ^ dist
		mid := lo + (hi-lo)/2
		mineFirst := me&dist == 0 // keep the first half if our bit is 0
		var keepLo, keepHi, sendLo, sendHi int
		if mineFirst {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		keep := st.view(buf, keepLo, keepHi)
		scratch := st.getScratch(keep)
		sreq := r.Isend(c, peer, tag, st.view(buf, sendLo, sendHi), o.Mode)
		r.RecvSummed(c, peer, tag, scratch).Verify()
		localReduce(r, keep, scratch, o)
		st.putScratch(scratch)
		r.Wait(sreq)
		lo, hi = keepLo, keepHi
	}

	// Binomial gather of the scattered segments to root. Segment
	// ownership after halving is contiguous by rank; rsgSegStart
	// replays the split sequence so both sides of every transfer agree
	// on the exact (possibly uneven) extents. At gather round `mask`, a
	// rank with (me & mask) != 0 sends everything it has collected —
	// segments [me, me+mask) — to me-mask.
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask != 0 {
			slo, shi := rsgSegStart(size, elems, me), rsgSegStart(size, elems, me+mask)
			r.Send(c, me-mask, tag+1, st.view(buf, slo, shi), o.Mode)
			return
		}
		peer := me + mask
		if peer >= size {
			continue
		}
		peerLo, peerHi := rsgSegStart(size, elems, peer), rsgSegStart(size, elems, peer+mask)
		if peerLo >= peerHi {
			continue
		}
		r.RecvSummed(c, peer, tag+1, st.view(buf, peerLo, peerHi)).Verify()
	}
}

// rsgSegStart returns the starting element of rank p's scattered
// segment by replaying the recursive-halving split sequence.
func rsgSegStart(size, elems, p int) int {
	if p >= size {
		return elems
	}
	slo, shi := 0, elems
	for dist := size / 2; dist >= 1; dist /= 2 {
		mid := slo + (shi-slo)/2
		if p&dist == 0 {
			shi = mid
		} else {
			slo = mid
		}
	}
	return slo
}

// rsgReducer is reduceScatterGather as a Reducer, carrying per-rank
// scratch state. Non-power-of-two communicators fall back to the
// chunked chain, built with the reducer.
type rsgReducer struct {
	c        *mpi.Comm
	o        Options
	states   stateTable
	fallback Reducer
}

func newRSGReducer(c *mpi.Comm, o Options) *rsgReducer {
	x := &rsgReducer{c: c, o: o}
	if s := c.Size(); s > 1 && s&(s-1) != 0 {
		x.fallback = &chainReducer{c: c, o: o}
	}
	return x
}

func (x *rsgReducer) Name() string { return "RSG" }

func (x *rsgReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	if x.fallback != nil {
		x.fallback.Reduce(r, buf, tag)
		return
	}
	st := x.states.acquire(x.c.Size(), x.c.Rank(r))
	defer st.release()
	reduceScatterGather(x.c, r, buf, tag, x.o, st)
}
