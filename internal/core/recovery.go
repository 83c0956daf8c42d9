package core

import (
	"fmt"
	"math"
	"slices"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// This file is the engine's side of elastic fault tolerance: the
// fault plane (internal/fault) injects failures and detects them
// through the MPI layer's deadline-sliced waits; the code here turns
// a detected failure into a continued run — survivors shrink the
// communicator, re-shard the batch, restore solver state from the
// latest snapshot (real mode) or the last globally completed
// iteration (timing mode), and keep training.

// applier carries out injected events on the engine's objects.
type applier struct{ st *runState }

// KillRank fail-stops the rank's procs and its data reader. Hangs are
// modeled fail-stop too — the rank stops participating; only the report
// distinguishes the kinds.
func (a *applier) KillRank(rank int, kind fault.Kind) {
	st := a.st
	st.world.Ranks[rank].KillAll()
	if rd := st.readers[rank]; rd != nil {
		rd.Stop()
		st.readers[rank] = nil
	}
}

// SetCompute turns a straggler on or off.
func (a *applier) SetCompute(rank int, factor float64) {
	a.st.world.Ranks[rank].Dev.SetSlowdown(factor)
}

// FlipBit flips one bit of one resident network parameter — silent
// in-memory corruption that no checksum on the wire can see, only the
// numeric-health watchdog. The word index wraps, so schedules stay valid
// across models.
func (a *applier) FlipBit(rank, word, bit int) {
	w := a.st.wl[rank]
	if w == nil || !w.real() {
		return
	}
	total := 0
	for _, l := range w.net.Layers {
		for _, p := range l.Params() {
			total += len(p.Data)
		}
	}
	if total == 0 {
		return
	}
	idx := word % total
	for _, l := range w.net.Layers {
		for _, p := range l.Params() {
			if idx < len(p.Data) {
				p.Data[idx] = math.Float32frombits(math.Float32bits(p.Data[idx]) ^ 1<<uint(bit))
				return
			}
			idx -= len(p.Data)
		}
	}
}

// ReviveRank gives a previously excluded rank a fresh main proc that
// announces itself at the join desk, waits for admission, and — once a
// grow round commits — runs the catch-up protocol and rejoins training.
func (a *applier) ReviveRank(rank int) {
	st := a.st
	st.ranksLive++
	st.world.RespawnRank(rank, func(r *mpi.Rank) {
		st.runJoined(r)
	})
}

// stalledSource wraps a rank's data source with the plane's
// reader-stall windows: a read issued during a stall waits the window
// out, then proceeds at the backend's normal cost.
type stalledSource struct {
	inner data.Source
	pl    *fault.Plane
	rank  int
}

func (s stalledSource) Name() string { return s.inner.Name() }

func (s stalledSource) ReadBatch(p *sim.Proc, n int, bytesPer int64) {
	if until := s.pl.StallUntil(s.rank); until > p.Now() {
		p.WaitUntil(until)
	}
	s.inner.ReadBatch(p, n, bytesPer)
}

// noteCompleted records global training progress (root's post-update
// node): the restart point for timing-mode recovery, which has no
// snapshots to roll back to.
func (st *runState) noteCompleted(it int) {
	if it > st.lastGoodIter {
		st.lastGoodIter = it
	}
}

// runJoined is the main function of a revived rank: wait at the join
// desk until a grow round admits it, then train like any other member.
// AwaitAdmission returns false only when nobody is left to admit the
// joiner (training already ended), in which case the proc just exits.
func (st *runState) runJoined(r *mpi.Rank) {
	defer st.rankDone(r.ID)
	if !st.ft.AwaitAdmission(r.ID, r.Proc) {
		return
	}
	st.ftLoop(r, st.restartIter)
}

// ftLoop is the training loop of every rank of every design, original
// or readmitted, starting at iteration it. Iterations run speculatively:
// a revoked communicator unwinds the iteration, gathers the survivors,
// and resumes from the rebuilt world's restart point. In a run that
// cannot trip nothing ever revokes, and the loop is a for loop over the
// rank's graph. The grow-epoch catch-up check runs before the
// termination test on purpose: a survivor released with a restart
// iteration at or past the end must still serve the catch-up protocol,
// or the joiner's collectives would wait on members that already left.
func (st *runState) ftLoop(r *mpi.Rank, it int) {
	cfg := st.cfg
	ph := &st.phases[r.ID]
	sink := &nodeSink{st: st, rank: r.ID, ph: ph}
	for {
		if st.catchupPending(r.ID) {
			if !unlessRevoked(func() { st.catchup(r) }) {
				st.ft.EnterRecovery(r.ID, r.Proc)
				it = st.restartIter
				continue
			}
		}
		if it >= cfg.Iterations {
			return
		}
		before := ph.Forward + ph.Backward
		if unlessRevoked(func() { st.graph(r).Execute(sink, it) }) {
			st.noteIterTime(r.ID, ph.Forward+ph.Backward-before)
			it++
			continue
		}
		// Revocation observed: rendezvous with every surviving rank.
		// The last arrival triggers rebuild() and releases everyone;
		// training resumes from the restart point it chose.
		st.ft.EnterRecovery(r.ID, r.Proc)
		it = st.restartIter
	}
}

// unlessRevoked runs fn and reports whether it ran to its end: a
// revocation panic (an iteration or a catch-up under fire) unwinds into
// a false return and the caller enters recovery. Any other panic
// (including a kill, which must unwind the whole proc) propagates.
func unlessRevoked(fn func()) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil && !mpi.IsRevoked(rec) {
			panic(rec)
		}
	}()
	fn()
	return true
}

// catchupPending reports whether rank still owes the current epoch's
// catch-up protocol: the last rebuild admitted joiners (growEpoch) and
// this rank has not run the protocol for that epoch yet.
func (st *runState) catchupPending(rank int) bool {
	return st.growEpoch == st.epoch && st.catchupSeen[rank] != st.epoch
}

// catchup runs one member's side of the catch-up protocol after a
// grow round: the post-admission handshake (each admitted rank Isends
// an ack to the root), then a tree broadcast of the root's current
// parameters and momentum — checksummed end to end when the integrity
// plane is armed — and a closing barrier so no member resumes training
// while a joiner is still receiving. State equality is already
// guaranteed by rebuild's snapshot rollback (every member, joiners
// included, restored the same snapshot); the broadcast carries the wire
// cost and integrity coverage of shipping params+momentum to the
// joiners, and the explicit copy below keeps real-mode members defined
// by the root even if the restore paths ever diverge. A revocation
// mid-protocol (join under fire) unwinds out of it; the caller
// re-enters recovery.
func (st *runState) catchup(r *mpi.Rank) {
	span := st.cfg.Trace.Begin(r.ID, "catchup", "", r.Now())
	w := st.wl[r.ID]
	root := st.isRoot(r)
	if root {
		for _, id := range st.lastAdmitted {
			// A grow round can hand the root role to an admitted rank
			// (rank 0 rejoining moves the root back to it); it owes no
			// ack to itself, and waiting for one would deadlock the
			// whole catch-up.
			if id == r.ID {
				continue
			}
			r.Wait(r.IjoinAckRecv(st.comm, st.comm.GroupRank(id), tagJoinAck, gpu.NewBuffer(8)))
		}
		if w.real() {
			w.packParams()
			st.catchupHist = st.sgds[r.ID].PackHistory(w.net, st.catchupHist)
		}
	} else if slices.Contains(st.lastAdmitted, r.ID) {
		r.Wait(r.IjoinAck(st.comm, tagJoinAck, gpu.NewBuffer(8)))
	}
	// Parameters + momentum in one payload, from the root's group rank 0
	// down the binomial tree.
	r.Bcast(st.comm, 0, gpu.NewBuffer(2*w.packedParams.Bytes), topology.ModeAuto)
	if w.real() && !root {
		rw := st.wl[st.rootRank()]
		w.net.UnpackParams(rw.paramData)
		st.sgds[r.ID].Reset()
		if len(st.catchupHist) > 0 {
			st.sgds[r.ID].LoadHistory(w.net, st.catchupHist)
		}
	}
	// No member trains on the grown world until every member finished
	// catching up (the root must not repack parameters mid-replay).
	st.comm.Barrier(r)
	st.catchupSeen[r.ID] = st.epoch
	span.End(r.Now())
}

// noteIterTime folds one completed iteration's compute time (forward +
// backward) into the rank's EWMA — the straggler policy's signal. Wall
// time is useless here: collectives synchronize the members, so a
// straggler inflates everyone's iteration latency but only its own
// compute time.
func (st *runState) noteIterTime(rank int, d sim.Duration) {
	v := float64(d)
	if e := st.iterEWMA[rank]; e != 0 {
		v = e + float64(ewmaAlpha*(v-e))
	}
	st.iterEWMA[rank] = v
}

// ewmaAlpha is the smoothing factor of the per-rank compute EWMA.
const ewmaAlpha = 0.25

// membershipTick is the root's per-iteration membership duty, run from
// the post-update node: apply the straggler-eviction policy, then open
// the admit window for any announced joiners. Both act only between
// rounds (never while a revocation is converging), keeping admission
// at clean iteration boundaries.
func (st *runState) membershipTick(r *mpi.Rank) {
	pl := st.ft
	if !st.isRoot(r) || pl.Revoked() {
		return
	}
	if f := st.cfg.EvictFactor; f > 0 && st.comm.Size() > 1 {
		st.evictStraggler(f)
	}
	if pl.JoinPending() && !pl.Revoked() {
		pl.BeginGrow()
	}
}

// evictStraggler evicts at most one rank per tick: the slowest member
// whose compute EWMA has exceeded EvictFactor times the member median
// for EvictWindow consecutive iterations. The root never evicts
// itself, and members without a seeded EWMA yet (fresh joiners) are
// exempt. Allocation-free: the scratch slice is preallocated and the
// median uses an insertion sort.
func (st *runState) evictStraggler(factor float64) {
	s := st.ewmaScratch[:0]
	n := st.comm.Size()
	for g := 0; g < n; g++ {
		if e := st.iterEWMA[st.comm.WorldRank(g)]; e > 0 {
			s = append(s, e)
		}
	}
	st.ewmaScratch = s
	if len(s) < 2 {
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	med := s[len(s)/2]
	rootID := st.rootRank()
	worst, worstEWMA := -1, 0.0
	for g := 0; g < n; g++ {
		id := st.comm.WorldRank(g)
		e := st.iterEWMA[id]
		if id == rootID || e == 0 {
			continue
		}
		if e > factor*med {
			st.slowStreak[id]++
			if st.slowStreak[id] >= st.cfg.EvictWindow && e > worstEWMA {
				worst, worstEWMA = id, e
			}
		} else {
			st.slowStreak[id] = 0
		}
	}
	if worst >= 0 {
		st.slowStreak[worst] = 0
		st.iterEWMA[worst] = 0
		st.ft.EvictRank(worst)
	}
}

// rankDone runs as each rank's proc unwinds (normal completion or
// kill): it tells the plane the rank left training, and the last one
// out stamps the run's end time and stops the readers (elastic ones
// would prefetch forever).
func (st *runState) rankDone(rank int) {
	st.ranksLive--
	st.ft.Depart(rank)
	if st.ranksLive == 0 {
		st.doneAt = st.k.Now()
		for _, rd := range st.readers {
			if rd != nil {
				rd.Stop()
			}
		}
	}
}

// setComm makes c the training communicator and builds what lasts as
// long as one does: the gradient reducer, and the CNTK-like design's
// allreduce — host buffers, its own multi-threaded reduction loops.
func (st *runState) setComm(c *mpi.Comm) {
	st.comm = c
	st.red = coll.NewReducer(c, st.cfg.Reduce, st.cfg.ReduceOpts)
	if st.cfg.Design == CNTKLike {
		st.ring = coll.NewRing(c, coll.Options{OnGPU: false, HostReduceBW: 20e9, Mode: topology.ModeHost})
	}
}

// regroup is the step both flavors of rebuild start with: fail-stop any
// helper lanes still unwinding from the revoked iteration (the resumed
// main lanes spawn fresh ones), then open a membership epoch over the
// members. The fresh communicator's id guarantees stale traffic from
// the abandoned iteration never matches.
func (st *runState) regroup(members []int) {
	for _, id := range members {
		st.world.Ranks[id].KillThreads()
	}
	st.setComm(st.world.EpochComm(members))
}

// unrecord drops the losses and accuracies recorded from iteration
// restart on: the replay re-records the rolled-back span.
func (st *runState) unrecord(restart int) {
	if keep := restart - st.cfg.StartIteration; keep >= 0 && keep < len(st.losses) {
		st.losses = st.losses[:keep]
	}
	if ti := st.cfg.TestInterval; ti > 0 {
		if keep := restart/ti - st.cfg.StartIteration/ti; keep >= 0 && keep < len(st.accuracies) {
			st.accuracies = st.accuracies[:keep]
		}
	}
}

// rebuild is the plane's recovery hook, run exactly once per round
// with every survivor parked: shrink the communicator to the
// survivors, rebuild their training state at the new batch geometry,
// restore solver state, restart the data plane, and return the
// iteration training resumes from.
func (st *runState) rebuild() int {
	cfg := st.cfg
	pl := st.ft

	// A watchdog trip revokes with zero failed ranks and takes the
	// micro-rollback path — unless a real failure landed in the same
	// round, in which case the full rebuild below handles both.
	micro := st.integRetry
	st.integRetry = false
	if micro && len(pl.Report().Recoveries) == st.recSeen {
		return st.rebuildMicro()
	}

	// Membership is the ACTIVE set — alive and still training. A rank
	// that already finished every iteration departed the loop; wiring
	// it into the new communicator would wedge every collective on a
	// member that never posts again (a late-run revocation races the
	// finishers). Its solver state stays untouched.
	alive := pl.ActiveRanks()
	admitted := pl.Admitted()
	grew := len(admitted) > 0

	st.regroup(alive)
	// The root can move when a shrink removes the old one; the quorum
	// rule must track it.
	pl.SetRoot(st.rootRank())

	// Re-shard: the global batch redistributes over the survivors.
	newLocal := cfg.localBatch(len(alive))
	for _, id := range alive {
		st.wl[id] = newWorkload(cfg, newLocal)
	}

	// Restore. Real mode rolls back to the latest on-disk snapshot
	// (or a cold restart when none exists yet); timing mode continues
	// after the last globally completed iteration — there is no model
	// state to make consistent.
	restart := 0
	rolledBack := false
	if cfg.RealNet != nil {
		var snap *Snapshot
		if n := len(st.snapshots); n > 0 {
			s, err := ReadSnapshot(st.snapshots[n-1])
			if err != nil && st.fileErr == nil {
				st.fileErr = err
			}
			snap = s
		}
		if snap != nil {
			restart = snap.Iteration + 1
			rolledBack = true
			for _, id := range alive {
				st.wl[id].net.UnpackParams(snap.Params)
				st.sgds[id].Reset()
				if len(snap.History) > 0 {
					st.sgds[id].LoadHistory(st.wl[id].net, snap.History)
				}
			}
		} else {
			// Cold restart: newWorkload already rebuilt every net from
			// the seed; drop the momentum to match, and re-apply an
			// explicit resume checkpoint if the run started from one.
			restart = cfg.StartIteration
			for _, id := range alive {
				st.sgds[id].Reset()
			}
			if cfg.ResumeFrom != "" {
				if err := st.resume(cfg.ResumeFrom); err != nil && st.fileErr == nil {
					st.fileErr = err
				}
			}
		}
		st.unrecord(restart)
	} else {
		restart = st.lastGoodIter + 1
	}

	// Restart the surviving data plane at the new batch size.
	st.epoch++
	if grew {
		// Flag this epoch for the catch-up protocol: every member —
		// joiners included — runs it before its first iteration on the
		// grown world (see tryCatchup). Fresh members start the straggler
		// policy with an unseeded EWMA.
		st.growEpoch = st.epoch
		st.lastAdmitted = append(st.lastAdmitted[:0], admitted...)
		for _, id := range admitted {
			st.iterEWMA[id] = 0
			st.slowStreak[id] = 0
		}
	}
	for _, id := range alive {
		if rd := st.readers[id]; rd != nil {
			rd.Stop()
		}
		st.readers[id] = data.StartReaderLoop(st.k, fmt.Sprintf("reader%d.e%d", id, st.epoch),
			stalledSource{inner: st.dataSrc, pl: pl, rank: id}, newLocal, cfg.Spec.PerSampleBytes, cfg.QueueDepth)
	}

	// Observability: stamp the rollback flag on this round's records
	// and emit one recovery span per survivor.
	recs := pl.Report().Recoveries
	if n := len(recs); n > st.recSeen {
		if rolledBack {
			pl.NoteRollback(n - st.recSeen)
		}
		detect := recs[st.recSeen].DetectedAt
		for i := st.recSeen + 1; i < n; i++ {
			if recs[i].DetectedAt < detect {
				detect = recs[i].DetectedAt
			}
		}
		for _, id := range alive {
			st.cfg.Trace.Add(id, "recovery", detect, st.k.Now())
		}
		st.recSeen = n
	}
	for _, id := range admitted {
		st.cfg.Trace.Add(id, "join", pl.AnnouncedAt(id), st.k.Now())
	}

	st.restartIter = restart
	return restart
}
