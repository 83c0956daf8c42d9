package coll

import "scaffe/internal/topology"

// mv2 models the pre-co-design MVAPICH2(-GDR) reduce: a flat binomial
// tree whose transfers are CUDA-aware (pipelined host staging), but
// whose reduction arithmetic runs on the host CPU out of the pinned
// staging buffers. The local operand is staged down to the host once,
// in the first round, and the device copy of the accumulating operand
// only returns to GPU memory once, at the root, after the last round.
// This is the "MV2" series of Figures 11–12.
func mv2(s []step, ro role) []step {
	if s = tree(s, ro, onHostStaged, onHost, topology.ModePipelined); ro.pos > 0 {
		return s
	}
	return append(s, step{op: upload})
}

// openMPI models OpenMPI 1.10-era reduce on GPU buffers: for the very
// large messages DL frameworks generate it degenerates to the basic
// linear algorithm — every non-root rank sends its full buffer to the
// root, which receives and reduces them one after another — with
// non-pipelined host staging on both ends and CPU reduction.
// Serializing 159 staged 256 MB messages through the root is what
// produces the up-to-133x gap of Figure 12.
func openMPI(s []step, ro role) []step {
	if ro.pos > 0 {
		return append(s, step{op: send, root: true, mode: topology.ModeStaged}, step{op: join})
	}
	for peer := int32(1); peer < int32(ro.size); peer++ {
		s = append(s, step{op: recvReduce, at: onHost, peer: peer})
	}
	return append(s, step{op: upload})
}
