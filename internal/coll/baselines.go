package coll

import (
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// mv2 models the pre-co-design MVAPICH2(-GDR) reduce: a flat binomial
// tree whose transfers are CUDA-aware (pipelined host staging), but
// whose reduction arithmetic runs on the host CPU out of the pinned
// staging buffers. The device copy of the accumulating operand
// therefore only returns to GPU memory once, at the root, after the
// last round. This is the "MV2" series of Figures 11–12.
func (b *builder) mv2(ro role) {
	t := b.t
	recv := func(x *sched.Ctx) {
		st := t.state(x)
		st.op = st.getScratch(x.Buf)
		st.req[0] = x.R.Irecv(st.c, st.me+1<<st.begin(), x.Tag, st.op)
	}
	for i := 0; i < ro.n; i++ {
		b.post(recv)
		if i == 0 {
			// The first round stages the local operand down to the host
			// (overlapped with nothing — MV2's reduce is blocking).
			b.timed(func(x *sched.Ctx) sim.Time {
				t.state(x).req[0] = nil // waited: the reduction has nothing to await
				_, end := x.R.W.Cluster.Transfer(x.R.Now(), x.R.Dev.ID, topology.HostOf(x.R.Dev.ID.Node), x.Buf.Bytes, topology.ModeAuto)
				return end
			}).Awaiting(b.recvd)
		}
		b.timed(b.host).Awaiting(b.recvd)
	}
	if ro.send {
		b.sendTo(parent, topology.ModePipelined)
	} else {
		b.timed(upload)
	}
}

// openMPI models OpenMPI 1.10-era reduce on GPU buffers: for the very
// large messages DL frameworks generate it degenerates to the basic
// linear algorithm — every non-root rank sends its full buffer to the
// root, which receives and reduces them one after another — with
// non-pipelined host staging on both ends and CPU reduction.
// Serializing 159 staged 256 MB messages through the root is what
// produces the up-to-133x gap of Figure 12.
func (b *builder) openMPI(ro role) {
	if ro.send {
		b.sendTo(func(int) int { return 0 }, topology.ModeStaged)
		return
	}
	t := b.t
	recv := func(x *sched.Ctx) {
		st := t.state(x)
		st.op = st.getScratch(x.Buf)
		st.req[0] = x.R.Irecv(st.c, st.begin()+1, x.Tag, st.op)
	}
	for peer := 1; peer < ro.size; peer++ {
		b.post(recv)
		b.timed(b.host).Awaiting(b.recvd)
	}
	b.timed(upload)
}

// upload returns the root's host-reduced result to its device.
func upload(x *sched.Ctx) sim.Time {
	_, end := x.R.W.Cluster.Transfer(x.R.Now(), topology.HostOf(x.R.Dev.ID.Node), x.R.Dev.ID, x.Buf.Bytes, topology.ModeAuto)
	return end
}
