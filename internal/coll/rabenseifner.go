package coll

import (
	"math/bits"

	"scaffe/internal/sched"
)

// rsg is Rabenseifner's reduce for power-of-two communicators:
// recursive-halving reduce-scatter followed by a binomial gather to root
// (group rank 0). It is the classic bandwidth-optimal alternative to
// both Eq. (1) and Eq. (2) — total traffic 2·b·(P−1)/P per rank versus
// the binomial tree's b·log2(P) — included for the algorithm-comparison
// experiments. Other communicators get the chunked chain (NewReducer).
//
// Tags tag..tag+1 are reserved.
func (b *builder) rsg(ro role) {
	t, size := b.t, ro.size
	// Recursive halving: at each step, each pair exchanges the half of
	// the current segment the peer is responsible for and reduces the
	// half it keeps.
	halve := func(x *sched.Ctx) {
		st := t.state(x)
		dist := size >> (st.begin() + 1)
		if dist == size/2 {
			st.lo, st.hi = 0, x.Buf.Elems()
		}
		mid := st.lo + (st.hi-st.lo)/2
		keepLo, keepHi, sendLo, sendHi := st.lo, mid, mid, st.hi
		if st.me&dist != 0 { // keep the upper half if our bit is set
			keepLo, keepHi, sendLo, sendHi = mid, st.hi, st.lo, mid
		}
		st.acc = st.view(x.Buf, keepLo, keepHi)
		st.op = st.getScratch(st.acc)
		st.req[1] = x.R.Isend(st.c, st.me^dist, x.Tag, st.view(x.Buf, sendLo, sendHi), t.o.Mode)
		st.recv(x, st.me^dist, x.Tag, st.op)
		st.lo, st.hi = keepLo, keepHi
	}
	rounds := bits.Len(uint(size)) - 1
	for i := 0; i < rounds; i++ {
		b.stage(halve, true)
		b.join(b.sent)
	}

	// Binomial gather of the scattered segments to root. Segment
	// ownership after halving is contiguous by rank; rsgSegStart replays
	// the split sequence so both sides of every transfer agree on the
	// exact (possibly uneven) extents. At gather round `mask` a rank
	// receives the segments [peer, peer+mask) its peer me+mask collected,
	// unless they are empty; at the round of its lowest set bit it sends
	// everything it has collected — segments [me, me+mask) — to me-mask.
	gather := func(x *sched.Ctx) {
		st := t.state(x)
		mask := 1 << (st.begin() - rounds)
		lo, hi := rsgSegStart(size, x.Buf.Elems(), st.me+mask), rsgSegStart(size, x.Buf.Elems(), st.me+2*mask)
		st.req[0], st.sum = nil, nil
		if lo < hi {
			st.recv(x, st.me+mask, x.Tag+1, st.view(x.Buf, lo, hi))
		}
	}
	for i := 0; i < ro.n; i++ {
		b.stage(gather, false)
	}
	if ro.send {
		b.post(func(x *sched.Ctx) {
			st := t.state(x)
			lo, hi := rsgSegStart(size, x.Buf.Elems(), st.me), rsgSegStart(size, x.Buf.Elems(), st.me+1<<ro.n)
			st.req[1] = x.R.Isend(st.c, parent(st.me), x.Tag+1, st.view(x.Buf, lo, hi), t.o.Mode)
		})
		b.join(b.sent)
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
