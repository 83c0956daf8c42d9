package fault

import (
	"fmt"

	"scaffe/internal/sim"
)

// DefaultTimeout is the base detection deadline: a fault-aware wait
// that makes no progress for this long consults the plane. It is far
// above any healthy per-operation latency in the modeled cluster, so
// fault-free runs never trip it, and small enough that detection
// latency stays a fraction of an iteration.
const DefaultTimeout = 10 * sim.Millisecond

// maxBackoffShift caps the exponential deadline backoff at
// quantum<<maxBackoffShift, so transient slowness (stragglers, link
// flaps) is ridden out with a bounded number of retries per window.
const maxBackoffShift = 4

// escalateAttempts is the loss-escalation threshold: a wait that has
// ridden the whole backoff ladder past its plateau while the wire
// plane has permanently discarded traffic is not slow — its payload is
// gone, and the plane revokes the communicator instead of retrying
// forever. Two plateau rides past the cap keeps false escalations out
// of merely-degraded runs.
const escalateAttempts = maxBackoffShift + 2

// DefaultJoinRetries is the admission-wait budget of one announce: a
// joiner that rides out this many capped-backoff deadlines without
// being admitted withdraws, cools down, and re-announces (it is
// re-queued, never admitted mid-round and never able to wedge
// training).
const DefaultJoinRetries = 6

// Applier carries out the physical side of injected events on the
// training engine. The plane keeps the bookkeeping; the engine owns the
// objects. Test doubles that care about one kind of event embed
// NopApplier for the rest.
type Applier interface {
	// KillRank fail-stops a rank (Crash, Hang, Evict and partition
	// fencing).
	KillRank(rank int, kind Kind)
	// SetCompute sets a rank's GPU slowdown factor (1 = full speed).
	SetCompute(rank int, factor float64)
	// FlipBit flips bit `bit` of 32-bit word `word` of the rank's
	// resident network parameters (BitFlip events).
	FlipBit(rank, word, bit int)
	// ReviveRank gives a previously excluded rank a fresh process that
	// announces itself and waits for admission (PollAdmission): the
	// elastic grow path.
	ReviveRank(rank int)
}

// NopApplier is the Applier under which no event has a physical side:
// the plane still counts every one as injected.
type NopApplier struct{}

func (NopApplier) KillRank(int, Kind)      {}
func (NopApplier) SetCompute(int, float64) {}
func (NopApplier) FlipBit(int, int, int)   {}
func (NopApplier) ReviveRank(int)          {}

// Recovery describes one detected failure and the shrink that
// absorbed it.
type Recovery struct {
	// Rank is the rank that failed.
	Rank int
	// Kind is Crash, Hang, Evict or Partitioned.
	Kind Kind
	// FailedAt is the injection time.
	FailedAt sim.Time
	// DetectedAt is when a survivor's deadline expired and revoked
	// the communicator.
	DetectedAt sim.Time
	// ResumedAt is when the shrunken world released survivors back
	// into training.
	ResumedAt sim.Time
	// RestartIter is the iteration training resumed from.
	RestartIter int
	// Survivors is the world size after the shrink.
	Survivors int
	// RolledBack reports whether survivors restored state from a
	// snapshot (or re-initialized) rather than continuing in place.
	RolledBack bool
}

// DetectionLatency is the injection-to-revocation delay.
func (r Recovery) DetectionLatency() sim.Duration { return r.DetectedAt - r.FailedAt }

// RecoveryTime is the revocation-to-resume delay (shrink + restore).
func (r Recovery) RecoveryTime() sim.Duration { return r.ResumedAt - r.DetectedAt }

// JoinRecord describes one admission through the elastic grow path.
type JoinRecord struct {
	// Rank is the readmitted rank.
	Rank int
	// AnnouncedAt is when the joiner first announced itself.
	AnnouncedAt sim.Time
	// AdmittedAt is when a grow round committed the admission.
	AdmittedAt sim.Time
	// Attempts counts admission-wait deadlines the joiner rode out
	// (capped exponential backoff) before being admitted.
	Attempts int
	// Requeues counts exhausted retry budgets: each one withdrew the
	// announce, cooled down, and re-queued it.
	Requeues int
	// RestartIter is the iteration the grown world resumed from.
	RestartIter int
	// WorldSize is the world size after the grow.
	WorldSize int
}

// AdmissionLatency is the announce-to-admission delay.
func (j JoinRecord) AdmissionLatency() sim.Duration { return j.AdmittedAt - j.AnnouncedAt }

// Report summarizes a faulted run for Result.
type Report struct {
	// Injected counts all scheduled events that fired.
	Injected int
	// Crashes and Hangs count fail-stop injections.
	Crashes, Hangs int
	// Retries counts deadline expiries that were ridden out with
	// backoff (no failed rank: transient slowness, not a fault).
	Retries int
	// SnapshotFailures counts snapshot writes suppressed by
	// SnapshotFail windows.
	SnapshotFailures int
	// BitFlips and WireCorruptions count armed silent-corruption
	// injections (the integrity plane reports what it caught).
	BitFlips, WireCorruptions int
	// Evictions counts ranks removed through the proactive evict path
	// (scripted Evict events plus the straggler policy).
	Evictions int
	// Drops, Dups, Reorders, and Delays count wire perturbations that
	// consumed a landing; PartitionDrops counts landings blackholed by
	// an active partition window.
	Drops, Dups, Reorders, Delays, PartitionDrops int
	// WireRevokes counts loss-aware escalations: deadline ladders
	// exhausted against permanently discarded traffic.
	WireRevokes int
	// Fenced counts ranks parked by the quorum rule during a partition
	// (they rejoin through the join desk after heal).
	Fenced int
	// StaleDissolved counts deliveries dissolved by epoch fencing:
	// traffic stamped with a pre-shrink/grow communicator epoch.
	StaleDissolved int
	// Survivors is the final world size (shrinks and grows included).
	Survivors int
	// Recoveries lists every shrink, in order.
	Recoveries []Recovery
	// Joins lists every admission through the grow path, in order.
	Joins []JoinRecord
	// JoinRequeues counts exhausted admission-retry budgets across all
	// joiners (each one re-queued the announce after a cool-down).
	JoinRequeues int
}

func (r *Report) String() string {
	s := fmt.Sprintf("injected=%d crashes=%d hangs=%d evictions=%d recoveries=%d joins=%d retries=%d snapshot-failures=%d survivors=%d",
		r.Injected, r.Crashes, r.Hangs, r.Evictions, len(r.Recoveries), len(r.Joins), r.Retries, r.SnapshotFailures, r.Survivors)
	if r.Drops+r.Dups+r.Reorders+r.Delays+r.PartitionDrops+r.Fenced+r.StaleDissolved > 0 {
		s += fmt.Sprintf(" drops=%d dups=%d reorders=%d delays=%d partition-drops=%d wire-revokes=%d fenced=%d stale-dissolved=%d",
			r.Drops, r.Dups, r.Reorders, r.Delays, r.PartitionDrops, r.WireRevokes, r.Fenced, r.StaleDissolved)
	}
	return s
}

// wireCorruption is one armed CorruptWire event: a countdown of
// checksummed transfers on a directed link, consumed exactly once.
type wireCorruption struct {
	src, dst  int
	countdown int
}

// linkWindow is one active LinkDegrade interval.
type linkWindow struct {
	node        int
	factor      float64
	from, until sim.Time
}

// Plane is the armed fault-injection and failure-detection state of
// one run. All methods run under the kernel's cooperative scheduling,
// so there is no locking.
type Plane struct {
	k       *sim.Kernel
	applier Applier
	rebuild func(Round) (restart int, rolledBack bool)

	// m is every rank's membership state (membership.go). failRec and
	// joinRec are the partial records of failed and joining ranks.
	m       membership
	failRec []Recovery
	joinRec []JoinRecord
	revoked bool

	// parked wakes the ranks waiting in PollRecovery, admitDone the
	// joiners a round admits; round is what a release hands the hook.
	// joinBudget is DefaultJoinRetries; the join desk's tests set others.
	parked     *sim.Completion
	round      Round
	admitDone  *sim.Completion
	joinBudget int

	stallUntil    []sim.Time
	links         []linkWindow
	snapFailUntil sim.Time
	snapFailOnce  bool
	wires         []*wireCorruption

	// The wire-perturbation plane. wireOn flips once the first wire
	// rule or partition window arms, gating the per-landing fate check
	// behind a single branch; trafficLost records that at least one
	// payload has been permanently discarded since the last committed
	// recovery round, arming the loss-aware timeout escalation.
	// rootRank is the engine's parameter root (see SetRoot).
	wireRules   []*wireRule
	parts       []*partitionWindow
	wireOn      bool
	trafficLost bool
	rootRank    int

	backoff Backoff

	report Report
}

// NewPlane returns an un-armed plane for a world of `ranks` ranks, with
// the deadline quantum SetQuantum takes.
func NewPlane(k *sim.Kernel, ranks int, quantum sim.Duration) *Plane {
	pl := &Plane{
		k:          k,
		m:          newMembership(ranks),
		failRec:    make([]Recovery, ranks),
		joinRec:    make([]JoinRecord, ranks),
		stallUntil: make([]sim.Time, ranks),
		joinBudget: DefaultJoinRetries,
	}
	pl.SetQuantum(quantum)
	return pl
}

// SetQuantum sets the base deadline the backoff ladder grows from; zero
// or negative uses DefaultTimeout. The quantum is the one place that
// knows whether a run can trip: a plane whose quantum is sim.Never hands
// out Never at every attempt, so its waits carry no deadline and never
// consult it.
func (pl *Plane) SetQuantum(quantum sim.Duration) {
	if quantum <= 0 {
		quantum = DefaultTimeout
	}
	pl.backoff = Backoff{Quantum: quantum, MaxShift: maxBackoffShift}
}

// SetRoot tells the plane which rank is the engine's parameter root: it
// anchors the partition quorum rule, and its loop ending is the run's
// final commit, after which finished ranks depart. Re-set after every
// rebuild — the root can move when the world shrinks.
func (pl *Plane) SetRoot(rank int) { pl.rootRank = rank }

// Arm schedules every event of the script on the kernel. Call it
// after the world's ranks are spawned and before the kernel runs.
func (pl *Plane) Arm(sched Schedule, ap Applier) {
	pl.applier = ap
	pl.report.Survivors = len(pl.m.state)
	for _, ev := range sched {
		pl.k.At(ev.At, func() { pl.apply(ev) })
	}
}

// OnRebuild registers the engine's shrink-and-restore hook. It runs
// exactly once per round, at release, with every member waiting in
// PollRecovery, and returns the iteration training resumes from and
// whether the members rolled back rather than continuing in place.
func (pl *Plane) OnRebuild(fn func(Round) (restart int, rolledBack bool)) { pl.rebuild = fn }

// apply executes one scheduled event in kernel context.
func (pl *Plane) apply(ev Event) {
	now := pl.k.Now()
	switch ev.Kind {
	case Crash, Hang:
		if !pl.Alive(ev.Rank) {
			return // already dead; nothing left to kill
		}
		pl.report.Injected++
		if ev.Kind == Crash {
			pl.report.Crashes++
		} else {
			pl.report.Hangs++
		}
		pl.kill(evKill, Recovery{Rank: ev.Rank, Kind: ev.Kind, FailedAt: now})
		pl.checkRelease()
	case StragglerOn:
		pl.report.Injected++
		pl.applier.SetCompute(ev.Rank, ev.Factor)
	case StragglerOff:
		pl.report.Injected++
		pl.applier.SetCompute(ev.Rank, 1)
		// A recovered rank that the evict path removed is readmitted
		// through the join path: the recover event is the self-healing
		// loop's re-entry point.
		pl.startJoin(ev.Rank, evRecover)
	case Evict:
		if pl.Alive(ev.Rank) { // else already out; nothing to evict
			pl.report.Injected++
			pl.EvictRank(ev.Rank)
		}
	case Join:
		pl.report.Injected++
		pl.startJoin(ev.Rank, evJoin)
	case LinkDegrade:
		pl.report.Injected++
		pl.links = append(pl.links, linkWindow{node: ev.Node, factor: ev.Factor, from: now, until: now + ev.For})
	case ReaderStall:
		pl.report.Injected++
		if until := now + ev.For; until > pl.stallUntil[ev.Rank] {
			pl.stallUntil[ev.Rank] = until
		}
	case SnapshotFail:
		pl.report.Injected++
		if ev.For <= 0 {
			pl.snapFailOnce = true
		} else if until := now + ev.For; until > pl.snapFailUntil {
			pl.snapFailUntil = until
		}
	case BitFlip:
		if !pl.Alive(ev.Rank) {
			return // nothing resident to corrupt
		}
		pl.report.Injected++
		pl.report.BitFlips++
		pl.applier.FlipBit(ev.Rank, ev.Word, ev.Bit)
	case CorruptWire:
		pl.report.Injected++
		pl.report.WireCorruptions++
		pl.wires = append(pl.wires, &wireCorruption{src: ev.Src, dst: ev.Dst, countdown: ev.N})
	case Drop, Dup, Reorder, Delay:
		pl.report.Injected++
		pl.wireRules = append(pl.wireRules, &wireRule{kind: ev.Kind, src: ev.Src, dst: ev.Dst, n: ev.N, hold: ev.For, from: now})
		pl.wireOn = true
	case Partition:
		pl.report.Injected++
		pl.parts = append(pl.parts, &partitionWindow{groups: ev.Groups, from: now, until: now + ev.For})
		pl.wireOn = true
	}
}

// kill fail-stops an alive rank (crash, hang, eviction, quorum fence);
// the one transition also takes it out of the open round it may have
// arrived in — the survivors must not wait for a corpse.
func (pl *Plane) kill(e event, rec Recovery) {
	pl.m.to(rec.Rank, e)
	pl.failRec[rec.Rank] = rec
	pl.applier.KillRank(rec.Rank, rec.Kind)
}

// WireCorrupt is the integrity plane's injection hook: called once per
// checksummed transfer on the directed link src->dst, it counts down
// every armed corruption on that link and reports whether this
// transfer is the one a corruption lands on. Each armed event fires
// exactly once.
func (pl *Plane) WireCorrupt(src, dst int) bool {
	hit := false
	for _, wc := range pl.wires {
		if wc.src != src || wc.dst != dst || wc.countdown <= 0 {
			continue
		}
		wc.countdown--
		if wc.countdown == 0 {
			hit = true
		}
	}
	return hit
}

// EvictRank removes an alive rank through the shrink path (an Evict
// event, or the engine's straggler policy): a controlled, instantly
// detected departure. Unlike a crash, no deadline has to expire for the
// revocation to be discovered — the evictor initiated it, so detection
// stamps at the same instant. A no-op when the rank is not alive.
func (pl *Plane) EvictRank(rank int) {
	if !pl.Alive(rank) {
		return
	}
	now := pl.k.Now()
	pl.report.Evictions++
	pl.kill(evEvict, Recovery{Rank: rank, Kind: Evict, FailedAt: now, DetectedAt: now})
	pl.setRevoked(now)
	pl.checkRelease()
}

// startJoin applies a join or recover event, reviving the rank when the
// table moves it from excluded to joining (a failed rank's join waits
// for the round that excludes it).
func (pl *Plane) startJoin(rank int, e event) {
	if pl.m.to(rank, e).phase == excluded && pl.m.state[rank].phase == joining {
		pl.revive(rank)
	}
}

// revive opens a joining rank's join record and gives it a fresh proc.
func (pl *Plane) revive(rank int) {
	pl.joinRec[rank] = JoinRecord{Rank: rank, AnnouncedAt: pl.k.Now()}
	pl.applier.ReviveRank(rank)
}

// PollAdmission is a revived rank's wait at the join desk, for a
// sim.Stepper of its proc: it announces the rank and waits until a grow
// round admits it, riding out busy admit windows with the same capped
// exponential backoff as failure detection. A wait that exhausts its
// retry budget withdraws the announce, cools down, and re-queues it —
// bounded retries, graceful degradation, and it can never wedge
// training. An announce locked in by BeginGrow cannot be withdrawn: its
// admission commits with the round. While it reports done false, p is
// armed to be resumed, and the step must return and call PollAdmission
// again then, with the same attempt: the deadlines ridden out since the
// last announce, zero at the first call. Done, it reports whether the
// rank was admitted: it gives up only when no member is left to admit it.
func (pl *Plane) PollAdmission(rank int, p *sim.Proc, attempt *int) (done, admitted bool) {
	rec := &pl.joinRec[rank]
	switch pl.m.state[rank].phase {
	case member: // the round that fired the admit window admitted it
		return true, true
	case announced, admitting: // the admit window's deadline
		if pl.m.live() == 0 {
			pl.m.to(rank, evAbandon)
			return true, false
		}
		if *attempt++; *attempt >= pl.joinBudget && pl.m.to(rank, evWithdraw).phase == announced {
			rec.Requeues++
			pl.report.JoinRequeues++
			*attempt = 0
			p.ArmUntil(pl.k.Now() + pl.backoff.Ceiling())
			return false, false
		}
	}
	c := pl.next(&pl.admitDone)
	pl.m.to(rank, evAnnounce)
	rec.Attempts++
	fired := p.ArmWaitTimeout(c, pl.Timeout(*attempt))
	return fired, fired
}

// JoinPending reports whether any announced joiner is waiting for an
// admit window.
func (pl *Plane) JoinPending() bool { return pl.m.n[announced] > 0 }

// BeginGrow opens the admit window at an iteration boundary: pending
// announces lock in (no longer withdrawable) and the communicator is
// revoked so every member unwinds into the grow round's rendezvous.
// The root calls it; a no-op while nothing is pending or a round is
// already converging.
func (pl *Plane) BeginGrow() {
	if !pl.JoinPending() || pl.revoked {
		return
	}
	for i := range pl.m.state {
		pl.m.to(i, evLock)
	}
	pl.revoked = true
}

// Revoke revokes the communicator without a dead rank behind it — the
// integrity plane's escalation path when a chunk stays corrupted past
// its retry budget, and the watchdog's micro-rollback trigger. Every
// fault-aware wait observes the revocation at its next deadline and
// unwinds into the recovery rendezvous; with zero failed ranks the
// release shrinks nothing and just re-runs the engine's rebuild hook.
func (pl *Plane) Revoke() { pl.setRevoked(pl.k.Now()) }

// setRevoked marks the communicator revoked and, on the un-revoked →
// revoked transition during an active partition window, schedules the
// quorum decision into kernel context (it kills ranks, which must not
// happen from inside one of their own waits).
func (pl *Plane) setRevoked(now sim.Time) {
	was := pl.revoked
	pl.revoked = true
	if !was {
		pl.scheduleQuorum(now)
	}
}

// Timeout returns the detection deadline for the given retry attempt:
// the shared capped-exponential Backoff ladder, so healthy-but-slow
// operations (stragglers, degraded links) are ridden out with a
// bounded number of retries. The join desk steps the same ladder.
func (pl *Plane) Timeout(attempt int) sim.Duration {
	return pl.backoff.Step(attempt)
}

// Revoked reports whether the communicator is revoked: a failure has
// been detected and survivors are converging on recovery.
func (pl *Plane) Revoked() bool { return pl.revoked }

// OnTimeout is called by a rank whose wait deadline expired without
// progress, carrying the attempt number of the expired deadline. It
// returns true if the communicator is (now) revoked — the caller must
// abandon the operation and enter recovery — and false if the stall
// has no dead rank behind it, in which case the caller retries with
// backoff. When the wire plane has permanently discarded traffic, a
// wait that has ridden the ladder past escalateAttempts revokes even
// with every rank alive: the payload it is waiting for no longer
// exists, and no amount of patience delivers it.
func (pl *Plane) OnTimeout(rank, attempt int, now sim.Time) bool {
	if pl.revoked {
		return true
	}
	if pl.m.n[failed] > 0 {
		pl.setRevoked(now)
		// Stamp detection on every pending failure: this one deadline
		// discovered them all.
		for i, s := range pl.m.state {
			if s.phase == failed && pl.failRec[i].DetectedAt == 0 {
				pl.failRec[i].DetectedAt = now
			}
		}
		return true
	}
	if pl.trafficLost && attempt >= escalateAttempts {
		pl.report.WireRevokes++
		pl.setRevoked(now)
		return true
	}
	pl.report.Retries++
	return false
}

// Arrive enters rank's main proc into the recovery rendezvous, which
// PollRecovery then waits out: a member that observed a revocation
// arrives; a finished rank (see Depart) is there already.
func (pl *Plane) Arrive(rank int) {
	if pl.m.state[rank].phase == member {
		pl.m.to(rank, evArrive)
	}
}

// PollRecovery waits out the recovery rendezvous rank's main proc
// arrived at, for a sim.Stepper of the proc: a member that arrived
// resumes when the round releases; a finished rank resumes if a round
// releases first, and leaves once the run is done with it. While it
// reports done false, p is armed to be resumed, and the step must
// return and call PollRecovery again then. Done, it reports whether the
// rank trains on.
func (pl *Plane) PollRecovery(rank int, p *sim.Proc) (done, trainOn bool) {
	for s := pl.m.state[rank]; s.phase == arrived || s.phase == finished; s = pl.m.state[rank] {
		c := pl.next(&pl.parked)
		pl.checkRelease()
		if !p.ArmWaitTimeout(c, sim.Never) { // fired already if checkRelease released the round
			return false, false
		}
	}
	return true, pl.m.state[rank].phase == member
}

// Depart reports that rank's training loop has ended: the rank is
// finished (for a rank outside the world, only its proc left).
func (pl *Plane) Depart(rank int) {
	pl.m.to(rank, evFinish)
	pl.checkRelease()
}

// checkRelease settles the membership after any change. Finished ranks
// depart once the run is done with them. Once every member arrived the
// round commits: arrived and finished ranks train on, failed ones are
// shrunk out, and announced joiners are admitted (a join rides whatever
// round commits first); the rebuild hook runs, the records are stamped,
// and members and admitted joiners wake together.
func (pl *Plane) checkRelease() {
	m := &pl.m
	if m.done(pl.rootRank) {
		for i := range m.state {
			m.to(i, evLeave)
		}
		fire(&pl.parked)
	}
	if !m.releasable() {
		return
	}
	now := pl.k.Now()
	r := &pl.round
	r.Members, r.Excluded, r.Admitted, r.DetectedAt = r.Members[:0], r.Excluded[:0], r.Admitted[:0], 0
	first := len(pl.report.Recoveries)
	for i := range m.state {
		switch m.to(i, evRelease).phase {
		case failed:
			rec := pl.failRec[i]
			if rec.DetectedAt == 0 {
				rec.DetectedAt = now
			}
			rec.ResumedAt = now
			pl.report.Recoveries = append(pl.report.Recoveries, rec)
			if len(r.Excluded) == 0 || rec.DetectedAt < r.DetectedAt {
				r.DetectedAt = rec.DetectedAt
			}
			r.Excluded = append(r.Excluded, i)
		case announced, admitting:
			rec := pl.joinRec[i]
			rec.AdmittedAt = now
			r.Admitted = append(r.Admitted, rec)
		}
		if m.state[i].phase == member {
			r.Members = append(r.Members, i)
		}
	}
	pl.revoked = false
	// A committed round restores consistency (rollback or rebuild), so
	// earlier payload loss no longer dooms in-flight waits.
	pl.trafficLost = false
	pl.report.Survivors = pl.AliveCount()
	restart, rolledBack := 0, false
	if pl.rebuild != nil {
		restart, rolledBack = pl.rebuild(*r)
	}
	for i := first; i < len(pl.report.Recoveries); i++ {
		rec := &pl.report.Recoveries[i]
		rec.RestartIter, rec.Survivors, rec.RolledBack = restart, pl.report.Survivors, rolledBack
	}
	for _, rec := range r.Admitted {
		rec.RestartIter, rec.WorldSize = restart, pl.report.Survivors
		pl.report.Joins = append(pl.report.Joins, rec)
	}
	if len(r.Admitted) > 0 {
		fire(&pl.admitDone)
	}
	// A join that landed while its rank was failed starts now that the
	// round excluded it (a recover event racing an eviction).
	for _, i := range r.Excluded {
		if m.state[i].phase == joining {
			pl.revive(i)
		}
	}
	fire(&pl.parked)
}

// next returns *c, making a fresh completion if the last one fired.
func (pl *Plane) next(c **sim.Completion) *sim.Completion {
	if *c == nil {
		*c = pl.k.NewCompletion()
	}
	return *c
}

// fire fires *c, if any; the next waiter gets a fresh one.
func fire(c **sim.Completion) {
	if done := *c; done != nil {
		*c = nil
		done.Fire()
	}
}

// Alive reports whether a rank is neither failed nor shrunk out.
func (pl *Plane) Alive(rank int) bool { return pl.m.state[rank].alive() }

// AliveCount returns the number of alive ranks.
func (pl *Plane) AliveCount() int {
	n := &pl.m.n
	return n[member] + n[arrived] + n[finished] + n[departed]
}

// StallUntil returns the time until which rank's reader is frozen
// (zero / the past when it is not).
func (pl *Plane) StallUntil(rank int) sim.Time { return pl.stallUntil[rank] }

// LinkFactor returns the wire-time multiplier for an inter-node
// transfer leaving srcNode at virtual time `at` (1 = healthy). It has
// the signature of topology's link-fault hook.
func (pl *Plane) LinkFactor(at sim.Time, srcNode, dstNode int) float64 {
	f := 1.0
	for _, w := range pl.links {
		if w.node == srcNode && at >= w.from && at < w.until && w.factor > f {
			f = w.factor
		}
	}
	return f
}

// SnapshotFailing reports whether a snapshot write at `now` fails,
// counting it in the report when it does.
func (pl *Plane) SnapshotFailing(now sim.Time) bool {
	if pl.snapFailOnce {
		pl.snapFailOnce = false
		pl.report.SnapshotFailures++
		return true
	}
	if now < pl.snapFailUntil {
		pl.report.SnapshotFailures++
		return true
	}
	return false
}

// Report returns the run's fault summary.
func (pl *Plane) Report() *Report { return &pl.report }
