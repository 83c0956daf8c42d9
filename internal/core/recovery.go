package core

import (
	"math"
	"slices"
	"strconv"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
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
	st.world.RespawnRank(rank, func(r *mpi.Rank) sim.Stepper {
		return &rankLoop{st: st, r: r, at: loopAdmit}
	})
}

// stalledSource wraps a rank's data source with the plane's
// reader-stall windows: a read issued during a stall waits the window
// out, then books the backend's read at its end.
type stalledSource struct {
	inner data.Source
	pl    *fault.Plane
	rank  int
}

func (s stalledSource) ReadBatch(now sim.Time, n int, bytesPer int64) data.Read {
	if until := s.pl.StallUntil(s.rank); until > now {
		return data.Read{At: [2]sim.Time{until}, N: 1, Then: s.inner}
	}
	return s.inner.ReadBatch(now, n, bytesPer)
}

// noteCompleted records global training progress (root's post-update
// node): the restart point for timing-mode recovery, which has no
// snapshots to roll back to.
func (st *runState) noteCompleted(it int) {
	if it > st.lastGoodIter {
		st.lastGoodIter = it
	}
}

// rankLoop is the life of every rank of every design, original or
// readmitted: the stepper of its main proc, which has no goroutine. It
// executes the rank's graph for each iteration, and the catch-up
// protocol's after a grow round. Iterations run speculatively: a
// revoked communicator ends the execution, the rank arrives at the
// survivors' rendezvous, and resumes from the rebuilt world's restart
// point. In a run that cannot trip nothing ever revokes, and the loop
// is iteration after iteration of the rank's graph. The grow-epoch
// catch-up check runs before the termination test on purpose: a
// survivor released with a restart iteration at or past the end must
// still serve the catch-up protocol, or the joiner's collectives would
// wait on members that already left. A rank whose loop has ended is
// finished, not gone: until the root has run its final commit, a round
// (a watchdog trip in the last iteration, say) still counts it and
// resumes it from the round's restart point. A revived rank starts at
// the join desk, and ends there if nobody is left to admit it.
type rankLoop struct {
	st     *runState
	r      *mpi.Rank
	at     loopAt
	it     int
	g      *sched.Graph // in execution (loopRun)
	update bool         // g is the iteration's, not the catch-up's
	before sim.Duration // forward + backward time when g started
	joins  int          // deadlines ridden out at the join desk since the last announce
}

type loopAt uint8

const (
	loopAdmit   loopAt = iota // a revived rank at the join desk
	loopNext                  // between executions
	loopRun                   // executing g
	loopRecover               // at the recovery rendezvous
)

// Step runs the rank up to its next wait.
func (l *rankLoop) Step(p *sim.Proc) bool {
	st, r := l.st, l.r
	for {
		switch l.at {
		case loopAdmit:
			done, admitted := st.ft.PollAdmission(r.ID, p, &l.joins)
			if !done {
				return false
			}
			if !admitted {
				st.rankDone()
				return true
			}
			l.at, l.it = loopNext, st.restartIter
		case loopNext:
			switch {
			case st.growEpoch == st.epoch && st.catchupSeen[r.ID] != st.epoch:
				// The last rebuild admitted joiners, and this rank still
				// owes that epoch's catch-up protocol.
				l.start(st.catchupGraph(r), false)
			case l.it >= st.cfg.Iterations:
				st.ft.Depart(r.ID)
				st.ft.Arrive(r.ID) // a round Depart released made it a member again
				l.at = loopRecover
			default:
				l.start(st.graph(r), true)
			}
		case loopRun:
			if !l.g.Step(p) {
				return false
			}
			if l.g.Revoked() {
				// Rendezvous with the survivors: the last arrival
				// triggers rebuild() and releases everyone.
				st.ft.Arrive(r.ID)
				l.at = loopRecover
				continue
			}
			if ph := &st.phases[r.ID]; l.update {
				st.noteIterTime(r.ID, ph.Forward+ph.Backward-l.before)
				l.it++
			}
			l.at = loopNext
		case loopRecover:
			// Training resumes from the restart point the round chose; a
			// finished rank the run is done with leaves instead.
			done, trainOn := st.ft.PollRecovery(r.ID, p)
			if !done {
				return false
			}
			if !trainOn {
				st.rankDone()
				return true
			}
			l.at, l.it = loopNext, st.restartIter
		}
	}
}

// start begins the execution of g for the loop's iteration.
func (l *rankLoop) start(g *sched.Graph, update bool) {
	l.g, l.update, l.at = g, update, loopRun
	ph := &l.st.phases[l.r.ID]
	l.before = ph.Forward + ph.Backward
	g.Start(l, l.it)
}

// NodeSpan routes the rank's scheduler spans into the run's accounting:
// lane-0 spans accumulate into the rank's Phases (preserving the
// original semantics of "time the main thread spends blocked per
// phase") and every span lands on the trace recorder with its node
// label, a wait span's as "<label>/wait" (built only when a recorder is
// present).
func (l *rankLoop) NodeSpan(lane int, kind sched.Kind, phase, label string, wait bool, start, end sim.Time) {
	if lane == 0 {
		l.st.phases[l.r.ID].add(phase, end-start)
	}
	if tr := l.st.cfg.Trace; tr != nil {
		if wait {
			label += "/wait"
		}
		tr.AddNode(l.r.ID, phase, label, start, end)
	}
}

// Unwind is the rank's end by a kill.
func (l *rankLoop) Unwind(*sim.Proc) { l.st.rankDone() }

// catchupGraph returns rank r's instance of the catch-up protocol's plan
// for the role it plays: the root's, or every other member's. The plans
// are built by the first catch-up of the run, and each rank keeps its
// instances, as it keeps its iteration graphs.
func (st *runState) catchupGraph(r *mpi.Rank) *sched.Graph {
	if st.catchups == nil {
		st.buildCatchup()
	}
	role := st.role(r)
	g := &st.catchups[r.ID][role]
	if *g == nil {
		*g = st.catchupPlans[role].Bind(r)
	}
	return *g
}

// buildCatchup builds the catch-up protocol every member runs after a
// grow round, one plan per role: the post-admission handshake (each
// admitted rank acks the root), then a tree broadcast of the root's
// parameters and momentum — checksummed end to end when the integrity
// plane is armed — and a closing barrier so no member resumes training
// while a joiner is still receiving. State equality is already
// guaranteed by rebuild's snapshot rollback; the broadcast carries the
// wire cost and integrity coverage of shipping the state to the joiners,
// and the copy out of it keeps real-mode members defined by the root even
// if the restore paths ever diverge. Which ranks were admitted is read
// when the protocol runs. A plan is one span, phase "catchup", over its
// fragment. The messages carry no payload, so every rank posts the same
// two buffers.
func (st *runState) buildCatchup() {
	st.catchups = make([][2]*sched.Graph, st.cfg.GPUs)
	ack, state := gpu.NewBuffer(8), gpu.NewBuffer(2*st.cfg.Spec.ParamBytes())
	// The root receives the acks one after another: the next one's
	// receive and await, then the same again while admitted ranks remain.
	// A grow round can hand the root role to an admitted rank (rank 0
	// rejoining moves the root back to it); it owes no ack to itself, and
	// waiting for one would deadlock the whole catch-up.
	acks := sched.NewPlan()
	st.postAwait(acks, func(x *sched.Ctx) *mpi.Request {
		for st.acked < len(st.lastAdmitted) {
			id := st.lastAdmitted[st.acked]
			if st.acked++; id != x.R.ID {
				return x.R.Irecv(st.comm, st.comm.GroupRank(id), tagJoinAck, ack)
			}
		}
		return nil
	})
	acks.AddSplice(sched.Generic, "", "", func(*sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		if st.acked < len(st.lastAdmitted) {
			return acks, nil, 0
		}
		return nil, nil, 0
	})
	acks.Seal()

	for role := range st.catchupPlans {
		f := sched.NewPlan()
		if role == roleRoot {
			f.AddSplice(sched.Generic, "", "", func(*sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
				st.acked = 0
				return acks, nil, 0
			})
			f.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
				if w := st.wl[x.R.ID]; w.real() {
					w.packParams()
					st.catchupHist = st.sgds[x.R.ID].PackHistory(w.net, st.catchupHist)
				}
			})
		} else {
			st.postAwait(f, func(x *sched.Ctx) *mpi.Request {
				if slices.Contains(st.lastAdmitted, x.R.ID) {
					return x.R.Isend(st.comm, 0, tagJoinAck, ack, topology.ModeAuto)
				}
				return nil
			})
		}
		// Parameters + momentum in one payload, from the root's group rank
		// 0 down the binomial tree.
		st.postAwait(f, func(x *sched.Ctx) *mpi.Request {
			return x.R.Ibcast(st.comm, 0, state, topology.ModeAuto)
		})
		if role != roleRoot {
			f.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
				if w := st.wl[x.R.ID]; w.real() {
					w.net.UnpackParams(st.wl[st.rootRank()].packedParams.Data)
					st.sgds[x.R.ID].Reset()
					if len(st.catchupHist) > 0 {
						st.sgds[x.R.ID].LoadHistory(w.net, st.catchupHist)
					}
				}
			})
		}
		// No member trains on the grown world until every member finished
		// catching up (the root must not repack parameters mid-replay).
		f.Add(0, sched.Generic, "", "", func(x *sched.Ctx) { st.comm.StartBarrier(x.R) })
		f.Add(0, sched.Generic, "", "", func(x *sched.Ctx) {
			if !x.R.PollBarrier() {
				x.Again()
				return
			}
			st.catchupSeen[x.R.ID] = st.epoch
		})
		p := sched.NewPlan()
		addFragment(p, sched.Generic, "catchup", "", f)
		p.Seal()
		st.catchupPlans[role] = p
	}
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
	pl.BeginGrow()
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

// rankDone runs as each rank's proc ends (the plane is done with it,
// or a kill): the last one out stamps the run's end time and stops the
// readers (elastic ones would prefetch forever).
func (st *runState) rankDone() {
	st.ranksLive--
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
// helper lanes still walking the revoked iteration (the resumed main
// lanes spawn fresh ones), then open a membership epoch over the
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
// with every member of the rebuilt world at the rendezvous: shrink or grow the
// communicator to the round's members, rebuild their training state at
// the new batch geometry, restore solver state, restart the data plane,
// and return the iteration training resumes from and whether the
// members rolled back.
func (st *runState) rebuild(round fault.Round) (int, bool) {
	cfg := st.cfg
	pl := st.ft
	members := round.Members
	st.regroup(members)

	// A watchdog trip revokes with zero failed ranks and takes the
	// micro-rollback path — unless the round also excluded or admitted
	// a rank, in which case the full rebuild below handles both.
	micro := st.integRetry && len(round.Excluded) == 0 && len(round.Admitted) == 0
	st.integRetry = false
	if micro {
		return st.rebuildMicro(members), false
	}

	// The root can move when a shrink removes the old one; the quorum
	// rule must track it.
	pl.SetRoot(st.rootRank())

	// Re-shard: the global batch redistributes over the members.
	newLocal := cfg.localBatch(len(members))
	for _, id := range members {
		st.wl[id] = st.newWorkload(newLocal)
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
			for _, id := range members {
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
			for _, id := range members {
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

	// Restart the members' data plane at the new batch size.
	st.epoch++
	if len(round.Admitted) > 0 {
		// Flag this epoch for the catch-up protocol: every member —
		// joiners included — runs it before its first iteration on the
		// grown world (see catchup). Fresh members start the straggler
		// policy with an unseeded EWMA.
		st.growEpoch = st.epoch
		st.lastAdmitted = st.lastAdmitted[:0]
		for _, j := range round.Admitted {
			st.lastAdmitted = append(st.lastAdmitted, j.Rank)
			st.iterEWMA[j.Rank] = 0
			st.slowStreak[j.Rank] = 0
		}
	}
	names := sim.Names("reader", len(st.readers), ".e"+strconv.Itoa(st.epoch))
	block := make([]rankReader, len(members))
	for j, id := range members {
		if rd := st.readers[id]; rd != nil {
			rd.Stop()
		}
		b := &block[j]
		b.stalled = stalledSource{inner: st.dataSrc, pl: pl, rank: id}
		b.Start(st.k, names[id], &b.stalled, newLocal, cfg.Spec.PerSampleBytes, -1, 1, readerQueueDepth)
		st.readers[id] = &b.Reader
	}

	// Observability: one recovery span per member, one join span per
	// admitted rank.
	if len(round.Excluded) > 0 {
		for _, id := range members {
			st.cfg.Trace.Add(id, "recovery", round.DetectedAt, st.k.Now())
		}
	}
	for _, j := range round.Admitted {
		st.cfg.Trace.Add(j.Rank, "join", j.AnnouncedAt, st.k.Now())
	}

	st.restartIter = restart
	return restart, rolledBack
}
