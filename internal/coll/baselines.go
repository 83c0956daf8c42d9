package coll

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/topology"
)

// mv2Reducer models the pre-co-design MVAPICH2(-GDR) reduce: a flat
// binomial tree whose transfers are CUDA-aware (pipelined host
// staging), but whose reduction arithmetic runs on the host CPU out of
// the pinned staging buffers. The device copy of the accumulating
// operand therefore only returns to GPU memory once, at the root,
// after the last round. This is the "MV2" series of Figures 11–12.
type mv2Reducer struct {
	c      *mpi.Comm
	states stateTable
}

func (m *mv2Reducer) Name() string { return "MV2" }

func (m *mv2Reducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := m.c.Rank(r)
	size := m.c.Size()
	if size == 1 {
		return
	}
	st := m.states.acquire(size, me)
	defer st.release()
	cl := r.W.Cluster
	var scratch *gpu.Buffer
	received := false
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask != 0 {
			if scratch != nil {
				st.putScratch(scratch)
			}
			r.Send(m.c, me-mask, tag, buf, topology.ModePipelined)
			return
		}
		peer := me + mask
		if peer >= size {
			continue
		}
		if scratch == nil {
			scratch = st.getScratch(buf)
		}
		r.Recv(m.c, peer, tag, scratch)
		if !received {
			// First round stages the local operand down to the host
			// (overlapped with nothing — MV2's reduce is blocking).
			_, end := cl.Transfer(r.Now(), r.Dev.ID, topology.HostOf(r.Dev.ID.Node), buf.Bytes, topology.ModeAuto)
			r.Proc.WaitUntil(end)
			received = true
		}
		buf.Accumulate(scratch)
		r.Sleep(cl.ReduceTime(buf.Bytes, false)) // CPU reduction
	}
	if scratch != nil {
		st.putScratch(scratch)
	}
	if received && me == 0 {
		// Root uploads the final result back to its device.
		_, end := cl.Transfer(r.Now(), topology.HostOf(r.Dev.ID.Node), r.Dev.ID, buf.Bytes, topology.ModeAuto)
		r.Proc.WaitUntil(end)
	}
}

// ompiReducer models OpenMPI 1.10-era reduce on GPU buffers: for the
// very large messages DL frameworks generate it degenerates to the
// basic linear algorithm — every non-root rank sends its full buffer
// to the root, which receives and reduces them one after another —
// with non-pipelined host staging on both ends and CPU reduction.
// Serializing 159 staged 256 MB messages through the root is what
// produces the up-to-133x gap of Figure 12.
type ompiReducer struct {
	c      *mpi.Comm
	states stateTable
}

func (o *ompiReducer) Name() string { return "OpenMPI" }

func (o *ompiReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := o.c.Rank(r)
	size := o.c.Size()
	if size == 1 {
		return
	}
	if me != 0 {
		r.Send(o.c, 0, tag, buf, topology.ModeStaged)
		return
	}
	st := o.states.acquire(size, me)
	defer st.release()
	cl := r.W.Cluster
	scratch := st.getScratch(buf)
	for peer := 1; peer < size; peer++ {
		r.Recv(o.c, peer, tag, scratch)
		buf.Accumulate(scratch)
		r.Sleep(cl.ReduceTime(buf.Bytes, false)) // CPU reduction
	}
	st.putScratch(scratch)
	// Result returns to the device.
	_, end := cl.Transfer(r.Now(), topology.HostOf(r.Dev.ID.Node), r.Dev.ID, buf.Bytes, topology.ModeAuto)
	r.Proc.WaitUntil(end)
}
