package fault

import (
	"fmt"

	"scaffe/internal/sim"
)

// This file is the membership state machine: one state per rank and a
// pure transition function over it. The Plane feeds it events and
// carries out their side effects (records, kills, revivals, wake-ups);
// which combinations are legal is decided here and nowhere else.
// DESIGN.md §9 prints the table.

// phase is where a rank stands. A member trains in the current world;
// arrived is a member parked in the open recovery round. A finished
// rank ran its training loop to the end: any round counts it as already
// arrived and resumes it from the round's restart iteration, until the
// run is done with it and it has departed (alive, never counted again).
// failed is dead but not yet shrunk out by a round, excluded shrunk out.
// The join desk: joining has a revived joiner proc that has not
// announced itself (or withdrew and is cooling down), announced waits
// for the next committed round to admit it, and admitting is an
// announce BeginGrow locked in, which can no longer be withdrawn.
type phase uint8

const (
	member phase = iota
	arrived
	finished
	departed
	failed
	excluded
	joining
	announced
	admitting
	numPhases
)

var phaseNames = [numPhases]string{"member", "arrived", "finished", "departed", "failed", "excluded", "joining", "announced", "admitting"}

func (p phase) String() string { return phaseNames[p] }

// memberState is one rank's membership: its phase, plus what a phase
// alone cannot say. evicted marks a rank the evict path removed, from
// its kill until its admission (a recover event readmits it); rejoin
// marks a failed rank whose join arrived before a round excluded it
// (the release that excludes it revives it).
type memberState struct {
	phase   phase
	evicted bool
	rejoin  bool
}

// alive reports whether the rank is neither failed nor shrunk out.
func (s memberState) alive() bool { return s.phase <= departed }

// event is what happens to a rank: a member arriving in the round; its
// training loop ending (finish — for a rank outside the world, only its
// proc leaving); the run being done with finished ranks (leave); a kill
// (crash, hang or quorum fence) or an eviction; the open round's
// release; a join event or a fence's heal, and a straggler's recover
// event, which readmits an evicted rank; a joiner's announce, withdraw
// and abandon; and BeginGrow's lock.
type event uint8

const (
	evArrive event = iota
	evFinish
	evLeave
	evKill
	evEvict
	evRelease
	evJoin
	evRecover
	evAnnounce
	evWithdraw
	evLock
	evAbandon
	numEvents
)

var eventNames = [numEvents]string{"arrive", "finish", "leave", "kill", "evict", "release", "join", "recover", "announce", "withdraw", "lock", "abandon"}

func (e event) String() string { return eventNames[e] }

// on is the transition table: the state a rank in state s moves to on
// event e. The rules are tried in order; a pair no rule covers is one
// the membership protocol never produces, and panics.
func (s memberState) on(e event) memberState {
	p := s.phase
	join := e == evJoin || e == evRecover && s.evicted
	switch {
	case e == evArrive && p == member:
		return memberState{phase: arrived}
	case e == evFinish && p == member:
		return memberState{phase: finished}
	case e == evLeave && p == finished:
		return memberState{phase: departed}
	case (e == evKill || e == evEvict) && s.alive():
		return memberState{phase: failed, evicted: e == evEvict}
	case e == evRelease && (p == arrived || p == finished || p == announced || p == admitting):
		return memberState{phase: member}
	case e == evRelease && p == failed && s.rejoin:
		return memberState{phase: joining, evicted: s.evicted}
	case e == evRelease && p == failed:
		return memberState{phase: excluded, evicted: s.evicted}
	case join && p == failed:
		s.rejoin = true
	case join && p == excluded, e == evWithdraw && p == announced:
		s.phase = joining
	case e == evAnnounce && p == joining:
		s.phase = announced
	case e == evLock && p == announced:
		s.phase = admitting
	case e == evAbandon && (p == announced || p == admitting):
		s.phase = excluded
	case e == evFinish && p >= failed, e == evLeave, e == evRelease && p != member,
		e == evJoin, e == evRecover, e == evLock,
		e == evAnnounce && p >= announced, e == evWithdraw && p == admitting:
		// No change.
	default:
		panic(fmt.Sprintf("fault: illegal membership transition: %v on %+v", e, s))
	}
	return s
}

// membership is every rank's state plus the number of ranks in each
// phase, which to keeps in step.
type membership struct {
	state []memberState
	n     [numPhases]int
}

func newMembership(ranks int) membership {
	m := membership{state: make([]memberState, ranks)}
	m.n[member] = ranks
	return m
}

// to applies event e to rank and returns the state it left.
func (m *membership) to(rank int, e event) (was memberState) {
	was = m.state[rank]
	now := was.on(e)
	m.state[rank] = now
	m.n[was.phase]--
	m.n[now.phase]++
	return was
}

// live counts the members, arrived or not: the ranks that can still
// open a round, finish, or admit a joiner.
func (m *membership) live() int { return m.n[member] + m.n[arrived] }

// releasable reports whether the open round may commit: some member
// arrived and none is still training.
func (m *membership) releasable() bool { return m.n[arrived] > 0 && m.n[member] == 0 }

// done reports whether the run is done with its finished ranks: the
// root ran its final commit (its own loop ended), or no member is left
// to open a round that would resume them.
func (m *membership) done(root int) bool {
	p := m.state[root].phase
	return m.n[finished] > 0 && (m.live() == 0 || p == finished || p == departed)
}

// Round is what a recovery round committed, handed to the engine's
// rebuild hook at release. Its slices are reused by the next round.
type Round struct {
	// Members train on in the rebuilt world, ascending: every arrived
	// and finished rank, and the admitted ones.
	Members []int
	// Excluded are the failed ranks the round shrank out, ascending.
	Excluded []int
	// Admitted are the admitted ranks' join records (rank, announce
	// time), ascending by rank.
	Admitted []JoinRecord
	// DetectedAt is the earliest detection among the excluded ranks'
	// records, zero when the round excluded nobody.
	DetectedAt sim.Time
}
