package mpi

import (
	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// ULFM-style fault tolerance: every world carries a fault plane
// (World.Fault), and every wait runs in the deadline slices of its
// backoff ladder. A deadline that expires without progress consults the
// plane — if a rank is dead the communicator is revoked and the wait
// panics with Revoked{}, which the engine catches to enter recovery;
// otherwise the wait retries with exponential backoff, riding out
// transient slowness (stragglers, degraded links). An expiry that finds
// nothing wrong is a step on the event loop (PollWait), not a resume of
// the waiting proc. A plane that cannot trip has the quantum sim.Never:
// its slices never end, so its waits cost what a wait without a
// deadline costs, and a world that deadlocks still reports it.

// Revoked is the panic value thrown by fault-aware MPI operations
// once the communicator has been revoked. It unwinds the current
// iteration; the engine recovers it and rendezvouses the survivors.
type Revoked struct{}

func (Revoked) Error() string { return "mpi: communicator revoked" }

// IsRevoked reports whether a recovered panic value is the
// communicator-revocation signal.
func IsRevoked(rec any) bool {
	_, ok := rec.(Revoked)
	return ok
}

// ftCheck aborts the calling operation immediately when the
// communicator is already revoked, so a rank cannot start new traffic
// against a dead world.
func (r *Rank) ftCheck() {
	if r.W.Fault.Revoked() {
		panic(Revoked{})
	}
}

// Waiter is the state of one wait between the steps of a sim.Stepper:
// whether the wait is armed, and which deadline slice it is on. The zero
// value is ready; a stepper abandoned mid-wait (a Revoked unwind) must
// zero its Waiter before the next use.
type Waiter struct {
	armed   bool
	attempt int32
}

// Armed reports whether a PollWait on w has armed a wait that is not
// over yet.
func (w *Waiter) Armed() bool { return w.armed }

// PollWait is the non-parking wait for c on proc p — the rank's main
// proc or one of its helper threads — for use inside a sim.Stepper's
// Step. It reports whether the wait is over. While it reports false, p
// is armed to be resumed, the Step must return false, and the next Step
// must call PollWait again with the same arguments: that call either
// finds c fired, or finds a deadline slice expired, consults the fault
// plane (panicking with Revoked{} on a detected failure, as ftCheck
// does up front) and arms the next, longer slice.
func (r *Rank) PollWait(p *sim.Proc, w *Waiter, c *sim.Completion) (done bool) {
	pl := r.W.Fault
	if !w.armed {
		if pl.Revoked() {
			panic(Revoked{})
		}
		w.attempt = 0
		if p.ArmWaitTimeout(c, pl.Timeout(0)) {
			return true
		}
		w.armed = true
		return false
	}
	if c.Fired() {
		w.armed = false
		return true
	}
	// Only a deadline resumes a proc whose completion has not fired.
	if pl.OnTimeout(r.ID, int(w.attempt), r.Now()) {
		panic(Revoked{})
	}
	w.attempt++
	p.ArmWaitTimeout(c, pl.Timeout(int(w.attempt)))
	return false
}

// PollRequest is PollWait for Wait(req): when the request completes it
// is released, as Wait releases it, and must not be used again. A
// deferred request does its work inside Wait and needs the proc's
// stack: those go to Wait (see Request.Deferred); polled, one never
// completes.
func (r *Rank) PollRequest(w *Waiter, req *Request) (done bool) {
	if !r.PollWait(r.Proc, w, req.Done) {
		return false
	}
	r.putRequest(req)
	return true
}

// waitStep is the stepper behind the blocking Wait: one PollWait per
// resume.
type waitStep struct {
	r *Rank
	c *sim.Completion
	w Waiter
}

func (s *waitStep) Step(p *sim.Proc) bool { return s.r.PollWait(p, &s.w, s.c) }

// wait blocks the rank's main proc until c fires (or the communicator
// is revoked).
func (r *Rank) wait(c *sim.Completion) {
	r.waiting = waitStep{r: r, c: c}
	r.Proc.RunSteps(&r.waiting)
}

// KillThreads kills the rank's live helper threads (stale lanes of an
// abandoned iteration during recovery).
func (r *Rank) KillThreads() {
	for _, t := range r.threads {
		t.Kill()
	}
	r.threads = r.threads[:0]
}

// KillAll fail-stops the rank: helper threads first, then the main
// proc. The fault plane's crash applier calls this.
func (r *Rank) KillAll() {
	r.KillThreads()
	if r.Proc != nil {
		r.Proc.Kill()
	}
}

// EpochComm opens a new membership epoch: a fresh communicator over the
// given ascending world ranks, whether the survivors of a failure
// (MPI_Comm_shrink) or a world grown by ranks readmitted through the
// join path. The new comm has its own id, so stale point-to-point and
// broadcast state of any earlier epoch, a member's pre-failure life
// included, can never match against it.
func (w *World) EpochComm(members []int) *Comm {
	w.bumpEpoch()
	return w.newComm(append([]int(nil), members...))
}

// IjoinAck is the joining rank's half of the post-admission handshake:
// a non-blocking send of its greeting to the root of the grown
// communicator, confirming the joiner reached the new epoch before the
// catch-up broadcast starts. Like every non-blocking operation the
// returned request must reach Wait.
func (r *Rank) IjoinAck(c *Comm, tag int, buf *gpu.Buffer) *Request {
	return r.Isend(c, 0, tag, buf, topology.ModeAuto)
}

// IjoinAckRecv is the root's half of the post-admission handshake: the
// matching non-blocking receive for one admitted rank's IjoinAck. The
// returned request must reach Wait.
func (r *Rank) IjoinAckRecv(c *Comm, from, tag int, buf *gpu.Buffer) *Request {
	return r.Irecv(c, from, tag, buf)
}
