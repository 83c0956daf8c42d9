// Package mpi implements the subset of CUDA-aware MPI that S-Caffe
// co-designs against, on top of the discrete-event simulator: ranks
// with tag-matched point-to-point messaging (blocking and
// non-blocking), communicators with sub-grouping, and a
// hardware-offloaded non-blocking broadcast engine (MPI_Ibcast).
//
// Ibcast progresses asynchronously (network-offloaded) without the
// rank's thread, so it genuinely overlaps with compute; its tree edges
// are ordinary deliveries, so every payload — point-to-point or
// broadcast — lands at one site (delivery.RunEvent), where wire faults,
// the epoch fence and checksums act on it. A reduction is
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
	"strconv"

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
	// arms per-chunk checksums on IrecvSummed receives and broadcast
	// edges (see integrity.go). Nil runs the exact seed code paths.
	Integrity *Integrity

	nextCommID int
	bcastOps   map[bcastKey]*bcastOp

	// epoch is the membership epoch: bumped by EpochComm
	// (never by plain sub-communicator construction). Every delivery,
	// broadcast tree edges included, is stamped with the epoch of its
	// sending, and a landing whose stamp is stale dissolves instead of
	// touching post-rebuild state — the fencing that makes held,
	// delayed, and duplicated wire traffic safe across recoveries. A
	// broadcast edge is only ever sent in its op's epoch: the bump drops
	// every op from the match table, and a stale edge dissolves before
	// it can commit and send on.
	epoch int

	// held stages at most one stashed (reordered) landing per directed
	// link: the next landing on the link releases it behind itself,
	// and a failsafe flush bounds how long it can sit.
	held map[linkKey]*delivery

	// Free lists for pooled hot-path records shared across ranks, linked
	// through the records' next pointers, and the blocks they are carved
	// from. Requests and unexpected sends are pooled per rank but carved
	// here: records are interchangeable and never ordered by address, so
	// which rank's miss carved one changes no event.
	delFree   *delivery
	dels      carver[delivery]
	reqs      carver[Request]
	pss       carver[pendingSend]
	bcastPool []*bcastOp

	// names holds every rank's proc name per tag asked for (procName).
	names map[string][]string
}

// NewWorld creates an n-rank world on cluster c, one rank per CUDA
// device in block placement order, with an idle fault plane. Ranks,
// devices and match tables are carved from one block each.
func NewWorld(c *topology.Cluster, n int) *World {
	if n > c.TotalGPUs() {
		panic(fmt.Sprintf("mpi: %d ranks requested but cluster has %d GPUs", n, c.TotalGPUs()))
	}
	w := &World{K: c.K, Cluster: c, Fault: fault.NewPlane(c.K, n, sim.Never), bcastOps: make(map[bcastKey]*bcastOp), names: make(map[string][]string)}
	ranks := make([]Rank, n)
	devs := gpu.NewDevices(c, n)
	slots := make([]matchSlot, n*matchSlots)
	w.Ranks = make([]*Rank, n)
	for i := range ranks {
		r := &ranks[i]
		r.W, r.ID, r.Dev = w, i, &devs[i]
		r.match.slots = slots[i*matchSlots : (i+1)*matchSlots : (i+1)*matchSlots]
		w.Ranks[i] = r
	}
	return w
}

// getDelivery draws a transfer-landing record from the world free
// list, or carves a new one.
func (w *World) getDelivery() *delivery {
	d := w.delFree
	if d == nil {
		return w.dels.next()
	}
	w.delFree, d.next = d.next, nil
	return d
}

func (w *World) putDelivery(d *delivery) {
	*d = delivery{next: w.delFree}
	w.delFree = d
}

// A carver hands out zeroed records from blocks, each as large as all
// carved before it, within [16, 255]: a world's pool that warms up takes
// a handful of allocations to get there, not one per record, and leaves
// few records unused. The cap is 255, not 256: a block of records that
// hold pointers carries the allocator's 8-byte header, so 256 records
// whose bytes fill a size class exactly (56-byte pending sends: 14,336)
// would spill into the next one (16,384).
type carver[T any] struct {
	block []T // what is left of the current block
	made  int // records carved so far
}

//go:noinline
func (c *carver[T]) next() *T {
	if len(c.block) == 0 {
		n := min(max(c.made, 16), 255)
		c.made += n
		c.block = make([]T, n)
	}
	t := &c.block[0]
	c.block = c.block[1:]
	return t
}

// procName returns rank id's proc name, "rank3", or with a tag
// "rank3.helper". The first call for a tag names every rank of the world
// with it at once (sim.Names), so a proc per rank costs no allocation
// per proc.
func (w *World) procName(id int, tag string) string {
	names, ok := w.names[tag]
	if !ok {
		suffix := tag
		if tag != "" {
			suffix = "." + tag
		}
		names = sim.Names("rank", len(w.Ranks), suffix)
		w.names[tag] = names
	}
	return names[id]
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

// SpawnSteps gives every rank a main proc with no goroutine: from birth
// it is the stepper main returns for it (sim.Kernel.SpawnSteps), and it
// finishes when that is done. main runs right here, before the rank has
// its proc: it builds the stepper, whose first step starts the rank's
// work. The caller then drives the kernel with K.Run().
func (w *World) SpawnSteps(main func(r *Rank) sim.Stepper) {
	for _, r := range w.Ranks {
		r.Proc = w.K.SpawnSteps(w.procName(r.ID, ""), main(r))
	}
}

// RespawnRank gives a previously failed rank a fresh main proc, the
// stepper main returns for it — the join path's counterpart of
// SpawnSteps, callable while the kernel runs. The rank's matching state
// from its previous life is dropped (posted receives, unexpected sends,
// helper threads): a respawned rank is only addressable through a
// communicator built after it rejoined, so nothing stale can ever match.
func (w *World) RespawnRank(id int, main func(r *Rank) sim.Stepper) {
	rank := w.Ranks[id]
	rank.KillThreads()
	rank.match = matchTable{}
	rank.lives++
	rank.Proc = w.K.SpawnSteps(w.procName(rank.ID, "j"+strconv.Itoa(rank.lives)), main(rank))
}

// Run starts every rank's main function as a simulated process with a
// goroutine, and runs the simulation to completion, returning the final
// virtual time.
func (w *World) Run(main func(r *Rank)) (sim.Time, error) {
	for _, r := range w.Ranks {
		rank := r
		rank.Proc = w.K.Spawn(w.procName(rank.ID, ""), func(*sim.Proc) { main(rank) })
	}
	err := w.K.Run()
	return w.K.Now(), err
}

// RunSteps is Run for ranks with no goroutine (SpawnSteps).
func (w *World) RunSteps(main func(r *Rank) sim.Stepper) (sim.Time, error) {
	w.SpawnSteps(main)
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

	// Free lists for the rank's pooled hot-path records; requests and
	// pending sends are linked through their next pointers and carved
	// from the world's blocks (World.reqs, World.pss).
	reqFree       *Request
	reqsLive      int // drawn and not released; see LiveRequests
	reqsAbandoned int // left live by earlier epochs; see LiveRequests
	psFree        *pendingSend
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
// process (the helper thread of SC-OBR), a proc with no goroutine whose
// life is s. The thread shares the rank's state and synchronizes with
// the main thread through the completions of the iteration graph's
// cross-lane nodes (sched.Node.After).
func (r *Rank) SpawnThread(name string, s sim.Stepper) *sim.Proc {
	p := r.W.K.SpawnSteps(r.W.procName(r.ID, name), s)
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
