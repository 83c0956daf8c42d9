package fault

import (
	"fmt"
	"slices"

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
	// announces itself and waits for admission (AwaitAdmission): the
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
	// Kind is Crash or Hang.
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

// recoveryRound is one leaderless all-survivor rendezvous: every
// surviving rank that observes the revocation enters, and the round
// releases — running the engine's rebuild hook first — once every
// rank currently alive has arrived.
type recoveryRound struct {
	arrived []bool
	count   int
	done    *sim.Completion
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
	total   int
	applier Applier
	rebuild func() int

	// excluded ranks have been shrunk out of the world; failed ranks
	// are dead but not yet absorbed by a shrink; departed ranks
	// finished (or died) and will never join a recovery rendezvous.
	excluded []bool
	failed   []bool
	departed []bool
	failRec  []Recovery // partial record per failed rank
	revoked  bool

	round *recoveryRound

	// The join desk. pending holds announced ranks waiting for a grow
	// round; admitting holds the pending set locked in by BeginGrow (a
	// locked joiner can no longer withdraw — its admission commits with
	// the round). joining marks ranks with a live joiner proc; evicted
	// marks ranks removed by the evict path (a later recover event
	// readmits them); rejoinQueued defers a join that arrived while the
	// rank was failed-but-not-yet-excluded. admitted is the last
	// committed round's admissions, for the rebuild hook.
	pending      []int
	admitting    []int
	joining      []bool
	evicted      []bool
	rejoinQueued []bool
	joinRec      []JoinRecord // partial record per joining rank
	admitted     []int
	admitDone    *sim.Completion
	joinBudget   int

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
	// rootRank is the engine's parameter root — the anchor of the
	// partition quorum rule.
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
		k:            k,
		total:        ranks,
		excluded:     make([]bool, ranks),
		failed:       make([]bool, ranks),
		departed:     make([]bool, ranks),
		failRec:      make([]Recovery, ranks),
		stallUntil:   make([]sim.Time, ranks),
		joining:      make([]bool, ranks),
		evicted:      make([]bool, ranks),
		rejoinQueued: make([]bool, ranks),
		joinRec:      make([]JoinRecord, ranks),
		joinBudget:   DefaultJoinRetries,
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

// SetRoot tells the plane which rank anchors the partition quorum
// rule (the engine's parameter root). Re-set after every rebuild —
// the root can move when the world shrinks.
func (pl *Plane) SetRoot(rank int) { pl.rootRank = rank }

// SetJoinRetries overrides the per-announce admission-wait budget
// (zero or negative keeps DefaultJoinRetries).
func (pl *Plane) SetJoinRetries(n int) {
	if n > 0 {
		pl.joinBudget = n
	}
}

// Arm schedules every event of the script on the kernel. Call it
// after the world's ranks are spawned and before the kernel runs.
func (pl *Plane) Arm(sched Schedule, ap Applier) {
	pl.applier = ap
	pl.report.Survivors = pl.total
	for _, ev := range sched {
		ev := ev
		pl.k.At(ev.At, func() { pl.apply(ev) })
	}
}

// OnRebuild registers the engine's shrink-and-restore hook. It runs
// exactly once per recovery round, at release time, with every
// surviving rank parked in EnterRecovery; it returns the iteration
// training resumes from.
func (pl *Plane) OnRebuild(fn func() int) { pl.rebuild = fn }

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
		pl.failed[ev.Rank] = true
		pl.failRec[ev.Rank] = Recovery{Rank: ev.Rank, Kind: ev.Kind, FailedAt: now}
		pl.applier.KillRank(ev.Rank, ev.Kind)
		// If the dead rank had already reached a recovery rendezvous,
		// un-count it and re-check: the survivors must not wait for a
		// corpse.
		if pl.round != nil && pl.round.arrived[ev.Rank] {
			pl.round.arrived[ev.Rank] = false
			pl.round.count--
		}
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
		if pl.evicted[ev.Rank] {
			pl.startJoin(ev.Rank)
		}
	case Evict:
		if !pl.Alive(ev.Rank) {
			return // already out; nothing to evict
		}
		pl.report.Injected++
		pl.evict(ev.Rank)
	case Join:
		pl.report.Injected++
		pl.startJoin(ev.Rank)
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

// evict removes an alive rank through the shrink path: a controlled,
// instantly detected departure. Unlike a crash, no deadline has to
// expire for the revocation to be discovered — the evictor initiated
// it, so detection stamps at the same instant.
func (pl *Plane) evict(rank int) {
	now := pl.k.Now()
	pl.report.Evictions++
	pl.failed[rank] = true
	pl.evicted[rank] = true
	pl.failRec[rank] = Recovery{Rank: rank, Kind: Evict, FailedAt: now, DetectedAt: now}
	pl.applier.KillRank(rank, Evict)
	pl.setRevoked(now)
	if pl.round != nil && pl.round.arrived[rank] {
		pl.round.arrived[rank] = false
		pl.round.count--
	}
	pl.checkRelease()
}

// EvictRank is the engine's straggler-policy entry point: proactively
// remove an alive rank through the shrink path. A no-op when the rank
// is not alive.
func (pl *Plane) EvictRank(rank int) {
	if !pl.Alive(rank) {
		return
	}
	pl.evict(rank)
}

// startJoin revives an excluded rank's joiner process. A join landing
// on a failed-but-not-yet-excluded rank is deferred until the round
// that excludes it commits; alive or already-joining ranks are left
// alone.
func (pl *Plane) startJoin(rank int) {
	if pl.failed[rank] {
		pl.rejoinQueued[rank] = true
		return
	}
	if !pl.excluded[rank] || pl.joining[rank] {
		return
	}
	pl.joining[rank] = true
	pl.departed[rank] = false
	pl.joinRec[rank] = JoinRecord{Rank: rank, AnnouncedAt: pl.k.Now()}
	pl.applier.ReviveRank(rank)
}

// announce registers rank at the join desk (idempotent) and returns
// the completion the next committed grow round fires.
func (pl *Plane) announce(rank int) *sim.Completion {
	if pl.admitDone == nil {
		pl.admitDone = pl.k.NewCompletion()
	}
	if !slices.Contains(pl.pending, rank) && !slices.Contains(pl.admitting, rank) {
		pl.pending = append(pl.pending, rank)
	}
	return pl.admitDone
}

// withdraw removes rank's announce from the pending queue, reporting
// whether it was withdrawable. Announces locked in by BeginGrow are
// not — their admission commits with the round.
func (pl *Plane) withdraw(rank int) bool {
	if slices.Contains(pl.admitting, rank) {
		return false
	}
	for i, r := range pl.pending {
		if r == rank {
			pl.pending = append(pl.pending[:i], pl.pending[i+1:]...)
			return true
		}
	}
	return false
}

// AwaitAdmission parks a revived rank's proc until a grow round admits
// it, riding out busy admit windows with the same capped exponential
// backoff as failure detection. A wait that exhausts its retry budget
// withdraws the announce, cools down, and re-queues it — bounded
// retries, graceful degradation, and it can never wedge training. It
// reports false (giving up entirely) only when no participant is left
// to admit the joiner.
func (pl *Plane) AwaitAdmission(rank int, p *sim.Proc) bool {
	rec := &pl.joinRec[rank]
	attempt := 0
	for {
		c := pl.announce(rank)
		rec.Attempts++
		if p.WaitTimeout(c, pl.Timeout(attempt)) {
			return true
		}
		if pl.participants() == 0 {
			pl.abandonJoin(rank)
			return false
		}
		attempt++
		if attempt >= pl.joinBudget && pl.withdraw(rank) {
			rec.Requeues++
			pl.report.JoinRequeues++
			attempt = 0
			p.Sleep(pl.backoff.Ceiling())
		}
	}
}

// abandonJoin cancels a joiner that found nobody left to admit it.
func (pl *Plane) abandonJoin(rank int) {
	pl.withdraw(rank)
	pl.joining[rank] = false
}

// JoinPending reports whether any announced joiner is waiting for an
// admit window.
func (pl *Plane) JoinPending() bool { return len(pl.pending) > 0 }

// BeginGrow opens the admit window at an iteration boundary: pending
// announces lock in (no longer withdrawable) and the communicator is
// revoked so every member unwinds into the grow round's rendezvous.
// The root calls it; a no-op while nothing is pending or a round is
// already converging.
func (pl *Plane) BeginGrow() {
	if len(pl.pending) == 0 || pl.revoked {
		return
	}
	pl.admitting = append(pl.admitting, pl.pending...)
	pl.pending = pl.pending[:0]
	pl.revoked = true
}

// Admitted returns the ranks the committing round admitted; valid
// inside the rebuild hook (the slice is reused across rounds).
func (pl *Plane) Admitted() []int { return pl.admitted }

// AnnouncedAt returns the announce time of rank's current join record
// (valid inside the rebuild hook for admitted ranks).
func (pl *Plane) AnnouncedAt(rank int) sim.Time { return pl.joinRec[rank].AnnouncedAt }

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
	for i := range pl.failed {
		if pl.failed[i] {
			pl.setRevoked(now)
			// Stamp detection on every pending failure: this one
			// deadline discovered them all.
			for j := range pl.failed {
				if pl.failed[j] && pl.failRec[j].DetectedAt == 0 {
					pl.failRec[j].DetectedAt = now
				}
			}
			return true
		}
	}
	if pl.trafficLost && attempt >= escalateAttempts {
		pl.report.WireRevokes++
		pl.setRevoked(now)
		return true
	}
	pl.report.Retries++
	return false
}

// EnterRecovery parks rank's main proc until every surviving rank has
// arrived and the shrink/rebuild has run. Ranks call it after
// observing a revocation.
func (pl *Plane) EnterRecovery(rank int, p *sim.Proc) {
	if pl.round == nil {
		pl.round = &recoveryRound{arrived: make([]bool, pl.total), done: pl.k.NewCompletion()}
	}
	rd := pl.round
	if !rd.arrived[rank] {
		rd.arrived[rank] = true
		rd.count++
	}
	pl.checkRelease()
	p.Wait(rd.done) // returns immediately if checkRelease fired it
}

// checkRelease releases the current recovery round once every alive
// rank has arrived: it commits the membership change (failed →
// excluded, announced joiners → members, clears the revocation), runs
// the engine's rebuild hook, stamps the new recovery and join records,
// and wakes everyone — survivors and admitted joiners together. Safe
// to call any time; it is a no-op until the round is complete.
func (pl *Plane) checkRelease() {
	rd := pl.round
	if rd == nil || rd.count == 0 || rd.count != pl.participants() {
		return
	}
	pl.round = nil
	now := pl.k.Now()
	first := len(pl.report.Recoveries)
	for i := range pl.failed {
		if !pl.failed[i] {
			continue
		}
		pl.failed[i] = false
		pl.excluded[i] = true
		rec := pl.failRec[i]
		if rec.DetectedAt == 0 {
			rec.DetectedAt = now
		}
		rec.ResumedAt = now
		pl.report.Recoveries = append(pl.report.Recoveries, rec)
	}
	// Admit every announced joiner: excluded → member. Admissions ride
	// whatever round commits first — the grow round the root opened, or
	// a shrink round that happened to converge in the same admit window
	// (a join under fire).
	pl.admitted = pl.admitted[:0]
	pl.takeJoins(pl.admitting)
	pl.takeJoins(pl.pending)
	pl.admitting = pl.admitting[:0]
	pl.pending = pl.pending[:0]
	slices.Sort(pl.admitted)
	pl.revoked = false
	// A committed round restores consistency (rollback or rebuild), so
	// earlier payload loss no longer dooms in-flight waits.
	pl.trafficLost = false
	pl.report.Survivors = pl.AliveCount()
	restart := 0
	if pl.rebuild != nil {
		restart = pl.rebuild()
	}
	for i := first; i < len(pl.report.Recoveries); i++ {
		pl.report.Recoveries[i].RestartIter = restart
		pl.report.Recoveries[i].Survivors = pl.report.Survivors
	}
	for _, r := range pl.admitted {
		rec := pl.joinRec[r]
		rec.AdmittedAt = now
		rec.RestartIter = restart
		rec.WorldSize = pl.report.Survivors
		pl.report.Joins = append(pl.report.Joins, rec)
	}
	if len(pl.admitted) > 0 && pl.admitDone != nil {
		done := pl.admitDone
		pl.admitDone = nil // the next announce gets a fresh round
		done.Fire()
	}
	// Joins that arrived while their rank was still failed start now
	// that the round excluded it (a recover event racing an eviction).
	for i := range pl.rejoinQueued {
		if pl.rejoinQueued[i] && pl.excluded[i] {
			pl.rejoinQueued[i] = false
			pl.startJoin(i)
		}
	}
	rd.done.Fire()
}

// takeJoins admits the announced ranks in list (skipping any that are
// no longer excluded) into pl.admitted.
func (pl *Plane) takeJoins(list []int) {
	for _, r := range list {
		if !pl.excluded[r] {
			continue
		}
		pl.excluded[r] = false
		pl.joining[r] = false
		pl.evicted[r] = false
		pl.departed[r] = false
		pl.admitted = append(pl.admitted, r)
	}
}

// NoteRollback marks the latest batch of recovery records as having
// restored state from a snapshot rather than continuing in place.
func (pl *Plane) NoteRollback(n int) {
	for i := len(pl.report.Recoveries) - n; i < len(pl.report.Recoveries); i++ {
		if i >= 0 {
			pl.report.Recoveries[i].RolledBack = true
		}
	}
}

// Depart marks a rank as finished with training (normally or by
// dying): recovery rendezvous must not wait for it. Re-checks the
// current round, since the departure may be what completes it.
func (pl *Plane) Depart(rank int) {
	pl.departed[rank] = true
	pl.checkRelease()
}

// participants counts the ranks a recovery rendezvous must gather:
// alive and still training.
func (pl *Plane) participants() int {
	n := 0
	for i := 0; i < pl.total; i++ {
		if pl.Alive(i) && !pl.departed[i] {
			n++
		}
	}
	return n
}

// Alive reports whether a rank is neither failed nor excluded.
func (pl *Plane) Alive(rank int) bool { return !pl.failed[rank] && !pl.excluded[rank] }

// AliveCount returns the number of alive ranks.
func (pl *Plane) AliveCount() int {
	n := 0
	for i := 0; i < pl.total; i++ {
		if pl.Alive(i) {
			n++
		}
	}
	return n
}

// AliveRanks returns the alive ranks in ascending order.
func (pl *Plane) AliveRanks() []int {
	var out []int
	for i := 0; i < pl.total; i++ {
		if pl.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// ActiveRanks returns the ranks still training — alive and not
// departed — in ascending order. This is the membership a recovery
// rebuild must hand the new communicator: a departed rank is alive
// (it finished normally, it did not fail) but its training loop has
// returned, so a collective that includes it waits forever. The
// rendezvous gathers exactly these ranks (see participants), and the
// rebuilt world must match.
func (pl *Plane) ActiveRanks() []int {
	var out []int
	for i := 0; i < pl.total; i++ {
		if pl.Alive(i) && !pl.departed[i] {
			out = append(out, i)
		}
	}
	return out
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
