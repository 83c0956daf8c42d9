package coll

// rsg is Rabenseifner's reduce for power-of-two communicators:
// recursive-halving reduce-scatter followed by a binomial gather to root
// (group rank 0). It is the classic bandwidth-optimal alternative to
// both Eq. (1) and Eq. (2) — total traffic 2·b·(P−1)/P per rank versus
// the binomial tree's b·log2(P) — included for the algorithm-comparison
// experiments. Other communicators get the chunked chain (NewReducer).
//
// Tags tag..tag+1 are reserved.
func rsg(s []step, ro role) []step {
	// Recursive halving: at each step, each pair exchanges the half of
	// the current segment the peer is responsible for and reduces the
	// half it keeps: the segments of the aligned group of dist ranks
	// each is in.
	for dist := int32(ro.size / 2); dist >= 1; dist /= 2 {
		peer := int32(ro.pos) ^ dist - int32(ro.pos)
		s = append(s,
			step{op: send, peer: peer, part: half, seg: peer, width: dist, mode: ro.mode},
			step{op: recvReduce, peer: peer, part: half, width: dist},
			step{op: join})
	}
	// Binomial gather of the scattered segments to root. Segment
	// ownership after halving is contiguous by rank; rsgSegStart replays
	// the split sequence so both sides of every transfer agree on the
	// exact (possibly uneven) extents. At gather round mask a rank
	// receives the segments [pos+mask, pos+2mask) its peer pos+mask
	// collected; at the round of its lowest set bit it sends everything
	// it has collected — segments [pos, pos+mask) — to pos-mask.
	mask := int32(1)
	for ; mask < int32(ro.size) && int32(ro.pos)&mask == 0; mask <<= 1 {
		s = append(s, step{op: recv, peer: mask, tag: 1, part: gathered, seg: mask, width: mask})
	}
	if ro.pos > 0 {
		s = append(s, step{op: send, peer: -mask, tag: 1, part: gathered, width: mask, mode: ro.mode}, step{op: join})
	}
	return s
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
