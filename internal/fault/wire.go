package fault

import "scaffe/internal/sim"

// This file is the wire-perturbation side of the plane: message-level
// fates for payload landings (drop/dup/reorder/delay), partition
// blackholes, and the split-brain quorum rule that fences the minority
// side of a cut when a revocation fires during an active window.
//
// The fate decision runs at LANDING time, not send time: the mpi layer
// consults WireFate the instant a delivery or broadcast edge is about
// to complete, so every reducer topology, broadcast tree, and
// handshake sees the same fabric without per-algorithm hooks. The
// plane only decides fates and keeps counters; the mpi layer owns the
// mechanics of re-scheduling, stashing, and duplicating records.

// WireVerdict is the fate of one payload landing.
type WireVerdict int

const (
	// WireDeliver lands the payload normally.
	WireDeliver WireVerdict = iota
	// WireDrop discards the payload permanently. The waiter's deadline
	// ladder eventually escalates through the revoke path (OnTimeout's
	// loss-aware branch), so a drop can delay a run but never wedge it.
	WireDrop
	// WireDup lands the payload and re-lands a duplicate at the same
	// instant; the generation-guarded completion machinery absorbs the
	// ghost.
	WireDup
	// WireHold re-schedules the landing after the rule's hold window.
	WireHold
	// WireSwap stashes the landing until the next landing on the same
	// link passes it, swapping their order; a stash with no follow-up
	// flushes after a failsafe window.
	WireSwap
)

// wireRule is one armed drop/dup/reorder/delay event: a countdown of
// landings on a directed link, consumed in arming order.
type wireRule struct {
	kind     Kind
	src, dst int
	n        int
	hold     sim.Duration
	from     sim.Time
}

// partitionWindow is one active Partition interval. fenced latches
// once the quorum rule has run for this window, so repeated
// revocations inside one window fence at most once.
type partitionWindow struct {
	groups      [][]int
	from, until sim.Time
	fenced      bool
}

// cuts reports whether the window silences the directed link src->dst:
// both endpoints listed, in different groups. Unlisted ranks are
// unaffected.
func (pw *partitionWindow) cuts(src, dst int) bool {
	ss, ds := sideIn(pw.groups, src), sideIn(pw.groups, dst)
	return ss >= 0 && ds >= 0 && ss != ds
}

// sideIn returns the group index holding rank, or -1 when unlisted.
func sideIn(groups [][]int, rank int) int {
	for gi, g := range groups {
		for _, r := range g {
			if r == rank {
				return gi
			}
		}
	}
	return -1
}

// WireArmed reports whether any wire perturbation or partition window
// has armed. The mpi delivery hot path gates its per-landing fate
// check behind this single branch, so fault-free runs and runs with
// only rank-level faults pay nothing.
func (pl *Plane) WireArmed() bool { return pl.wireOn }

// WireFate decides the fate of one payload landing on the directed
// link src->dst at virtual time now, and for WireHold the window to
// hold it. Partition windows are consulted first — a cut link
// blackholes regardless of per-link rules — then armed rules consume
// their landing counts in arming order.
func (pl *Plane) WireFate(src, dst int, now sim.Time) (WireVerdict, sim.Duration) {
	for _, pw := range pl.parts {
		if now >= pw.from && now < pw.until && pw.cuts(src, dst) {
			pl.report.PartitionDrops++
			pl.trafficLost = true
			return WireDrop, 0
		}
	}
	for _, r := range pl.wireRules {
		if r.n <= 0 || r.src != src || r.dst != dst || now < r.from {
			continue
		}
		r.n--
		switch r.kind {
		case Drop:
			pl.report.Drops++
			pl.trafficLost = true
			return WireDrop, 0
		case Dup:
			pl.report.Dups++
			return WireDup, 0
		case Reorder:
			pl.report.Reorders++
			return WireSwap, 0
		case Delay:
			pl.report.Delays++
			return WireHold, r.hold
		}
	}
	return WireDeliver, 0
}

// ReorderFailsafe returns the window after which a stashed (reordered)
// landing with no follow-up flushes itself: the ladder's plateau, so
// the flush always lands before any waiter can escalate.
func (pl *Plane) ReorderFailsafe() sim.Duration { return pl.backoff.Ceiling() }

// NoteStaleDissolved counts one delivery dissolved by epoch fencing.
func (pl *Plane) NoteStaleDissolved() { pl.report.StaleDissolved++ }

// activePartition returns the partition window covering now, if any.
func (pl *Plane) activePartition(now sim.Time) *partitionWindow {
	for _, pw := range pl.parts {
		if now >= pw.from && now < pw.until {
			return pw
		}
	}
	return nil
}

// scheduleQuorum arms the quorum decision when a revocation fires
// inside an active, not-yet-fenced partition window. The decision is
// scheduled into kernel context rather than run inline: it kills
// ranks, and the revocation often originates inside one of their own
// deadline waits.
func (pl *Plane) scheduleQuorum(now sim.Time) {
	pw := pl.activePartition(now)
	if pw == nil || pw.fenced {
		return
	}
	pl.k.At(now, pl.enforceQuorum)
}

// enforceQuorum applies the split-brain rule to the partition window
// active at the current instant: only the side holding the root AND at
// least half the previous world continues; every other listed, alive
// rank is fenced — killed with a Partitioned recovery record and
// re-entered through the join desk once the window heals. Without a
// quorate side no rank may continue (two sides could otherwise commit
// diverging parameter histories), so everyone is fenced and the run
// ends ErrUnrecovered.
func (pl *Plane) enforceQuorum() {
	now := pl.k.Now()
	pw := pl.activePartition(now)
	if pw == nil || pw.fenced || !pl.revoked {
		return
	}
	pw.fenced = true
	rootSide := sideIn(pw.groups, pl.rootRank)
	if rootSide < 0 {
		// The root is unlisted: every rank still reaches it, so there
		// is no ambiguity for the quorum rule to resolve.
		return
	}
	// The previous world is everyone not yet shrunk out; the continuing
	// side is the root's group plus unlisted ranks (they reach both
	// sides, and follow the root).
	prev, cont := 0, 0
	for i := 0; i < pl.total; i++ {
		if !pl.excluded[i] {
			prev++
		}
		if pl.Alive(i) && !pl.departed[i] {
			if s := sideIn(pw.groups, i); s == rootSide || s < 0 {
				cont++
			}
		}
	}
	quorate := pl.Alive(pl.rootRank) && 2*cont >= prev
	for i := 0; i < pl.total; i++ {
		if !pl.Alive(i) || pl.departed[i] {
			continue
		}
		s := sideIn(pw.groups, i)
		if quorate && (s == rootSide || s < 0) {
			continue
		}
		pl.fence(i, now, pw.until)
	}
	pl.checkRelease()
}

// fence parks one rank cut off by the quorum rule: it is killed like a
// crash (the surviving side's deadline waits detect it instantly — the
// record is pre-stamped), and its re-entry through the join desk is
// scheduled for the heal instant. A fence landing before the current
// recovery round commits is deferred by startJoin's rejoinQueued path.
func (pl *Plane) fence(rank int, now, healAt sim.Time) {
	pl.report.Fenced++
	pl.failed[rank] = true
	pl.failRec[rank] = Recovery{Rank: rank, Kind: Partitioned, FailedAt: now, DetectedAt: now}
	pl.applier.KillRank(rank, Partitioned)
	if pl.round != nil && pl.round.arrived[rank] {
		pl.round.arrived[rank] = false
		pl.round.count--
	}
	pl.k.At(healAt, func() { pl.startJoin(rank) })
}
