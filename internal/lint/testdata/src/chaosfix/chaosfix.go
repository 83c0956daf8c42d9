// Package chaosfix seeds the kernel-context rule of the mpi pass: the
// delivery-perturbation hooks of the chaos plane — sim.Runnable
// RunEvent bodies and closures handed to Kernel.At — run inside the
// event kernel, where no rank loop exists to Wait a request. A request
// constructed there is structurally unwaited even when the result is
// stored, so the pass flags the construction itself; the hooks must
// reschedule or re-land intercepted traffic, never post new requests.
package chaosfix

import (
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

const fixTag = 11

// perturbHook mimics a wire-fault delivery event: it intercepts a
// landing message and (wrongly) tries to repair the loss by posting
// replacement traffic from kernel context.
type perturbHook struct {
	r       *mpi.Rank
	c       *mpi.Comm
	buf     *gpu.Buffer
	pending *mpi.Request
}

func (h *perturbHook) RunEvent(k *sim.Kernel) {
	h.pending = h.r.Isend(h.c, 1, fixTag, h.buf, topology.ModeAuto) // want `mpi.Isend inside a RunEvent kernel hook`
	h.pending = h.r.Irecv(h.c, 1, fixTag, h.buf)                    // want `mpi.Irecv inside a RunEvent kernel hook`
}

// failsafeFromCallback mimics the reorder-stash failsafe shape from
// mpi/wire.go, but posts a fresh receive from the kernel callback.
func failsafeFromCallback(k *sim.Kernel, r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer, reqs *[]*mpi.Request) {
	k.At(5, func() {
		*reqs = append(*reqs, r.Irecv(c, 1, fixTag, buf)) // want `mpi.Irecv inside a Kernel.At callback`
	})
}

// wellBehavedHook does what a perturbation hook is allowed to do:
// reschedule itself and hand work back to the kernel without posting
// requests.
type wellBehavedHook struct {
	fired bool
}

func (h *wellBehavedHook) RunEvent(k *sim.Kernel) {
	h.fired = true
	k.At(7, func() { h.fired = false })
}

// wellBehaved creates and waits requests from ordinary proc context —
// outside any kernel hook, the lifecycle rules alone apply.
func wellBehaved(r *mpi.Rank, c *mpi.Comm, buf *gpu.Buffer) {
	sreq := r.Isend(c, 1, fixTag, buf, topology.ModeAuto)
	rreq := r.Irecv(c, 1, fixTag+1, buf)
	r.Wait(sreq)
	r.Wait(rreq)
}
