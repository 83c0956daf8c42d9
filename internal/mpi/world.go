// Package mpi implements the subset of CUDA-aware MPI that S-Caffe
// co-designs against, on top of the discrete-event simulator: ranks
// with tag-matched point-to-point messaging (blocking and
// non-blocking), communicators with sub-grouping, and a
// hardware-offloaded non-blocking broadcast engine (MPI_Ibcast).
//
// Ibcast progresses asynchronously (network-offloaded) without the
// rank's thread, so it genuinely overlaps with compute. A reduction is
// CPU-progressed in the paper's runtime — an Ireduce does all its work
// inside Wait (Section 4.2) — which is a reducer's fragment spliced where
// the rank waits (package coll), so no request type here models it.
//
// Every blocking call has a non-parking form for a sim.Stepper:
// PollWait and PollRequest for Wait, StartBarrier and PollBarrier for
// Barrier. The blocking forms run those as steps of the rank's main proc.
package mpi

import (
	"fmt"

	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// World owns every rank of one simulated MPI job.
type World struct {
	K       *sim.Kernel
	Cluster *topology.Cluster
	Ranks   []*Rank

	// Fault is the world's fault plane, never nil: every blocking wait
	// runs in the deadline slices its backoff ladder hands out and can
	// revoke the communicator (see fault.go). NewWorld installs an idle
	// plane whose quantum is sim.Never, so its waits carry no deadline;
	// a run that can trip gives that plane a finite quantum or installs
	// its own.
	Fault *fault.Plane

	// Integrity, when non-nil with a mode other than IntegrityOff,
	// arms per-chunk checksums on RecvSummed receives and broadcast
	// edges (see integrity.go). Nil runs the exact seed code paths.
	Integrity *Integrity

	nextCommID int
	bcastOps   map[bcastKey]*bcastOp

	// epoch is the membership epoch: bumped by EpochComm
	// (never by plain sub-communicator construction). Every delivery
	// and broadcast op is stamped with the epoch of its creation, and
	// a landing whose stamp is stale dissolves instead of touching
	// post-rebuild state — the fencing that makes held, delayed, and
	// duplicated wire traffic safe across recoveries.
	epoch int

	// held stages at most one stashed (reordered) landing per directed
	// link: the next landing on the link releases it behind itself,
	// and a failsafe flush bounds how long it can sit.
	held map[linkKey]heldRec

	// Free lists for pooled hot-path records shared across ranks.
	delPool   []*delivery
	bcastPool []*bcastOp
	edgePool  []*bcastEdge
}

// NewWorld creates an n-rank world on cluster c, one rank per CUDA
// device in block placement order, with an idle fault plane.
func NewWorld(c *topology.Cluster, n int) *World {
	if n > c.TotalGPUs() {
		panic(fmt.Sprintf("mpi: %d ranks requested but cluster has %d GPUs", n, c.TotalGPUs()))
	}
	w := &World{K: c.K, Cluster: c, Fault: fault.NewPlane(c.K, n, sim.Never), bcastOps: make(map[bcastKey]*bcastOp)}
	for i := 0; i < n; i++ {
		w.Ranks = append(w.Ranks, &Rank{
			W:   w,
			ID:  i,
			Dev: gpu.NewDevice(c, c.DeviceForRank(i)),
		})
	}
	return w
}

// getDelivery draws a transfer-landing record from the world free
// list; the cold miss path allocates.
func (w *World) getDelivery() *delivery {
	n := len(w.delPool)
	if n == 0 {
		return newDelivery()
	}
	d := w.delPool[n-1]
	w.delPool[n-1] = nil
	w.delPool = w.delPool[:n-1]
	return d
}

// newDelivery is getDelivery's pool-miss path.
func newDelivery() *delivery { return &delivery{} }

func (w *World) putDelivery(d *delivery) {
	*d = delivery{}
	w.delPool = append(w.delPool, d)
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.Ranks) }

// bumpEpoch advances the membership epoch at an EpochComm boundary.
// Pre-rebuild broadcast ops are dropped from the match table WITHOUT
// pooling their records: in-flight edges (held, delayed, or simply late)
// may still reference them, and will dissolve against the stale epoch
// when they land. Leaking a handful of op records per recovery is the
// price of never recycling one under a live reference. The requests
// still live on every rank are abandoned the same way: no wait will come
// for them, and LiveRequests stops counting them.
func (w *World) bumpEpoch() {
	w.epoch++
	for _, r := range w.Ranks {
		r.reqsAbandoned += r.LiveRequests()
	}
	for k := range w.bcastOps {
		delete(w.bcastOps, k)
	}
}

// Spawn starts every rank's main function as a simulated process. The
// caller then drives the kernel with K.Run().
func (w *World) Spawn(main func(r *Rank)) {
	for _, r := range w.Ranks {
		rank := r
		rank.Proc = w.K.Spawn(fmt.Sprintf("rank%d", rank.ID), func(p *sim.Proc) {
			main(rank)
		})
	}
}

// RespawnRank gives a previously failed rank a fresh main proc running
// main — the join path's counterpart of Spawn, callable while the
// kernel runs. The rank's matching state from its previous life is
// dropped (posted receives, unexpected sends, helper threads): a
// respawned rank is only addressable through a communicator built
// after it rejoined, so nothing stale can ever match.
func (w *World) RespawnRank(id int, main func(r *Rank)) {
	rank := w.Ranks[id]
	rank.KillThreads()
	rank.match = matchTable{}
	rank.lives++
	rank.Proc = w.K.Spawn(fmt.Sprintf("rank%d.j%d", rank.ID, rank.lives), func(p *sim.Proc) {
		main(rank)
	})
}

// Run spawns all ranks on main and runs the simulation to completion,
// returning the final virtual time.
func (w *World) Run(main func(r *Rank)) (sim.Time, error) {
	w.Spawn(main)
	if err := w.K.Run(); err != nil {
		return w.K.Now(), err
	}
	return w.K.Now(), nil
}

// RunSteps is Run for ranks with no goroutine: each rank's main proc is,
// from birth, the stepper main returns for it (sim.Kernel.SpawnSteps),
// and finishes when that is done. main runs before the kernel does and
// before the rank has its proc: it builds the stepper, whose first step
// starts the rank's work.
func (w *World) RunSteps(main func(r *Rank) sim.Stepper) (sim.Time, error) {
	for _, r := range w.Ranks {
		r.Proc = w.K.SpawnSteps(fmt.Sprintf("rank%d", r.ID), main(r))
	}
	err := w.K.Run()
	return w.K.Now(), err
}

// Rank is one MPI process bound to one GPU.
type Rank struct {
	W    *World
	ID   int
	Dev  *gpu.Device
	Proc *sim.Proc

	match matchTable // posted receives and unexpected sends, by (comm, sender, tag)

	// Free lists for the rank's pooled hot-path records. reqBlock is what
	// is left of the block new requests are carved from, reqsMade how many
	// were carved so far.
	reqPool       []*Request
	reqBlock      []Request
	reqsMade      int
	reqsAbandoned int // left live by earlier epochs; see LiveRequests
	psPool        []*pendingSend
	sumPool       []*Summed

	// threads tracks live helper procs so a crash (or recovery) can
	// fail-stop the whole rank, not just its main thread.
	threads []*sim.Proc

	// waiting and barrier are the steppers behind the blocking Wait and
	// Barrier; a rank's main proc runs at most one blocking call at a
	// time, so one record of each serves every call.
	waiting waitStep
	barrier barrierStep

	// lives counts RespawnRank rebirths, keeping respawned proc names
	// unique for traces and diagnostics.
	lives int
}

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.W.K.Now() }

// Sleep advances the rank's virtual time (models local CPU work).
func (r *Rank) Sleep(d sim.Duration) { r.Proc.Sleep(d) }

// SpawnThread starts an additional simulated thread inside this rank's
// process (the helper thread of SC-OBR). The thread shares the rank's
// state and synchronizes with the main thread through the completions
// of the iteration graph's cross-lane nodes (sched.Node.After).
func (r *Rank) SpawnThread(name string, fn func(p *sim.Proc)) *sim.Proc {
	p := r.W.K.Spawn(fmt.Sprintf("rank%d.%s", r.ID, name), fn)
	// Prune finished threads so the tracking list stays bounded however
	// many the rank's lives spawn.
	live := r.threads[:0]
	for _, t := range r.threads {
		if !t.Finished() {
			live = append(live, t)
		}
	}
	r.threads = append(live, p)
	return p
}
