package sim

import (
	"fmt"
	"runtime"
	"strings"
)

// Proc is a simulated process: a goroutine scheduled cooperatively by
// the kernel, or a Stepper with no goroutine at all (SpawnSteps). At most
// one proc runs at any instant, so proc code may touch shared simulation
// state without locks.
type Proc struct {
	k    *Kernel
	name string
	wake chan struct{} // nil for a proc with no goroutine
	id   uint64        // spawn order, for the deadlock report
	slot int           // index in Kernel.procs while unfinished

	finished bool
	killed   bool
	// idle: parked by a step that armed nothing (ArmIdle); only Wake, a
	// kill, or the end of the run resumes it.
	idle bool

	// waitSeq/waitArmed guard completion wake-ups: every Wait arms a
	// fresh sequence number, and a wake event only delivers if the proc
	// is still parked on that same wait. This lets a completion and a
	// timeout race for the same parked proc without ever resuming it
	// twice (a double resume would block the kernel goroutine). The
	// event loop disarms the guard when it delivers the wake.
	waitArmed bool
	waitSeq   uint64

	// timer is the proc's deadline state, made by its first
	// ArmWaitTimeout: most procs never arm one.
	timer *procTimer

	// stepper, while non-nil, receives the proc's resumes as Step calls
	// on the event loop instead of goroutine handoffs (see RunSteps).
	// stepFail is a panic a step raised there, kept until RunSteps raises
	// it again on this proc's own goroutine.
	stepper  Stepper
	stepFail *stepFailure
}

// procTimer is one proc's deadline: the wait it is parked on may have
// one, and at most one timer event of the proc's is live in the queue at
// a time, however many waits it arms (see ArmWaitTimeout).
type procTimer struct {
	// at, seq key the current wait's deadline exactly as the event a
	// per-wait deadline would have been; seq is 0 while the current wait
	// has none.
	at  Time
	seq uint64
	// liveAt, liveSeq key the live timer event; liveSeq is 0 when there
	// is none. Any other timer event of the proc's that pops is an orphan
	// left by a shorter deadline, and lapses.
	liveAt  Time
	liveSeq uint64
}

// stepFailure is a panic raised by a step on the event loop: its value,
// and where it happened, for the failure report should nobody recover
// it. Almost every one is recovered — mpi.Revoked{} is how a rank leaves
// a collective — so the place is kept as return addresses and becomes
// text only in that report. The record hangs off the proc rather than
// lying in it: few procs ever panic.
type stepFailure struct {
	rec any
	pcs [24]uintptr
	n   int
}

// failStep keeps a panic that p's step raised on the event loop.
//
//go:noinline
func (p *Proc) failStep(rec any) {
	f := &stepFailure{rec: rec}
	f.n = runtime.Callers(3, f.pcs[:]) // from the frame under Kernel.step's recover: the panic, then who raised it
	p.stepFail = f
}

// stack renders where the step panicked, innermost frame first.
func (f *stepFailure) stack() string {
	var b strings.Builder
	for frames := runtime.CallersFrames(f.pcs[:f.n]); ; {
		fr, more := frames.Next()
		fmt.Fprintf(&b, "%s\n\t%s:%d\n", fr.Function, fr.File, fr.Line)
		if !more {
			return b.String()
		}
	}
}

// procKilled is the panic value a killed proc unwinds with; Spawn's
// recovery treats it as a normal exit.
type procKilled struct{}

// IsKilled reports whether a recovered panic value is the proc-kill
// sentinel, for intermediate recover()s that must not swallow it.
func IsKilled(rec any) bool {
	_, ok := rec.(procKilled)
	return ok
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Finished reports whether the proc has returned (or been killed).
func (p *Proc) Finished() bool { return p.finished }

// Kill terminates the proc at the current virtual time: its next
// resumption panics with a sentinel that the kernel treats as a normal
// exit. This is the fault plane's rank-crash primitive. Killing a
// finished or already-killed proc is a no-op.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	p.k.atResume(p.k.now, p)
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// SetGroup does nothing: it assigned the proc's shard under the
// parallel-lookahead kernel mode, which is gone (DESIGN.md §13). It
// stays only because bench/ladder.go, which a change may not edit,
// still calls it; it goes with that rung.
func (p *Proc) SetGroup(int) {}

// park yields control to the kernel and blocks until some event
// resumes this proc. A killed proc unwinds here instead of returning.
//
// The parking proc runs the event loop itself (loopFrom) and hands the
// baton directly to the next proc — one goroutine switch per segment
// instead of two — or keeps running with no switch at all when the
// next event resumes this same proc.
//
// No proc may park while a step is running, its own or another's — a
// helper's step that calls a blocking wait of its rank's main proc: the
// step runs on whatever goroutine drives the event loop, which parking
// would hand to nobody. It panics instead, naming the procs, and the
// stepping proc's RunSteps raises the panic. A proc with no goroutine
// (SpawnSteps) has nothing to park, and panics too.
func (p *Proc) park() {
	k := p.k
	if s := k.stepping; s == p {
		panic(fmt.Sprintf("sim: proc %q parks inside its own step", p.name))
	} else if s != nil {
		panic(fmt.Sprintf("sim: proc %q parks inside a step of proc %q", p.name, s.name))
	} else if p.wake == nil {
		panic(fmt.Sprintf("sim: proc %q has no goroutine to park", p.name))
	}
	p.stepFail = nil // of a step panic the proc recovered from: not the next panic's
	switch k.loopFrom(p) {
	case loopSelf:
		// The next event resumes this proc: keep running.
	case loopTerminal:
		k.home <- struct{}{}
		<-p.wake
	case loopHanded:
		<-p.wake
	}
	if p.killed {
		panic(procKilled{})
	}
}

// armWait returns a fresh wait sequence number and marks the proc as
// parked on a guarded wait (see Proc.waitSeq) that has no deadline yet.
func (p *Proc) armWait() uint64 {
	p.waitSeq++
	p.waitArmed = true
	if t := p.timer; t != nil {
		t.seq = 0
	}
	return p.waitSeq
}

// Sleep advances this proc's virtual time by d, allowing other events
// to run in between.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.atResume(p.k.now+d, p)
	p.park()
}

// WaitUntil blocks until virtual time t (no-op if t is in the past,
// beyond a yield).
func (p *Proc) WaitUntil(t Time) {
	p.k.atResume(t, p)
	p.park()
}

// Yield gives other events scheduled for the current instant a chance
// to run before this proc continues.
func (p *Proc) Yield() {
	p.k.atResume(p.k.now, p)
	p.park()
}

// Wait blocks until c fires. If c has already fired it returns
// immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	if !p.ArmWaitTimeout(c, Never) {
		p.park()
	}
}

// WaitTimeout blocks until c fires or d virtual time elapses,
// whichever comes first, and reports whether c has fired. It is the
// primitive under fault-aware MPI waits: a deadline that expires
// without progress lets the caller consult the fault plane instead of
// blocking forever on a dead peer.
func (p *Proc) WaitTimeout(c *Completion, d Duration) bool {
	if !p.ArmWaitTimeout(c, d) {
		p.park()
	}
	return c.fired
}

// Stepper is a run-to-completion continuation of a parked proc: the
// work between two of its waits, written as a function that returns
// instead of blocking.
type Stepper interface {
	// Step runs the proc's work up to its next wait. It returns false
	// after arming exactly one wait with ArmUntil or ArmWaitTimeout: the
	// proc stays parked and the next resume calls
	// Step again. It returns true, with no wait armed, to give control
	// back to the proc's goroutine, which returns from RunSteps — or, for
	// a proc with no goroutine (SpawnSteps), to finish the proc.
	//
	// The one other return is idle: false after ArmIdle, which arms
	// nothing. The proc stays parked with its stepper until Wake calls
	// Step again, and a run whose queue drains while it is idle unwinds it
	// as if killed instead of reporting a deadlock — the shape of a
	// long-lived helper that has nothing to do until someone hands it
	// work.
	//
	// Step runs on whichever goroutine is driving the event loop, in the
	// queue position of the resume it stands for. It may do anything an
	// event callback may — schedule, fire, spawn — but must not park:
	// no Wait, WaitUntil, Sleep, Yield, queue, flag or semaphore call,
	// and no nested RunSteps that would park: a park there panics, naming
	// the proc. Work that needs the proc's stack returns true and does it
	// after RunSteps. A panic raised in Step surfaces from RunSteps on the
	// proc's own goroutine.
	Step(p *Proc) (done bool)
}

// RunSteps runs s until a step reports done. The first step runs right
// here; if it arms a wait the proc parks with s installed, and from
// then on every event that would have resumed the proc calls s.Step on
// the event loop's goroutine instead of switching to this one. Because
// a step takes the queue position of the resume it replaces and arms
// its next wait with the same kernel calls the blocking forms make, the
// order of events is the one the blocking code produces. A killed proc
// is not stepped: it unwinds from here like from any park.
func (p *Proc) RunSteps(s Stepper) {
	if p.step(s) {
		return
	}
	p.stepper = s
	p.park()
	if f := p.stepFail; f != nil {
		panic(f.rec) // kept for the failure report until the proc parks again
	}
}

// step runs one step of s with p marked as the stepping proc, so that a
// park in it panics. A step nested in another's (a RunSteps whose first
// step ends it) leaves the mark as it found it.
func (p *Proc) step(s Stepper) bool {
	k := p.k
	was := k.stepping
	k.stepping = p
	defer func() { k.stepping = was }()
	return s.Step(p)
}

// ArmUntil is WaitUntil without the park, for a Step: the proc is
// resumed at t (at the current instant, behind everything already
// scheduled for it, when t is past).
func (p *Proc) ArmUntil(t Time) { p.k.atResume(t, p) }

// ArmWaitTimeout is WaitTimeout without the park, for a Step. It
// reports whether c has already fired, in which case nothing is armed;
// otherwise the proc is resumed when c fires or d from now, whichever
// is first, and c.Fired tells the two apart. A wait whose d is Never
// has no deadline: it reserves no sequence number and makes no timer,
// so it adds nothing to the event stream but c's wake.
func (p *Proc) ArmWaitTimeout(c *Completion, d Duration) (fired bool) {
	if c.fired {
		return true
	}
	c.addWaiter(waiter{p, p.armWait()})
	if d != Never {
		p.armDeadline(p.k.now + d)
	}
	return false
}

// armDeadline gives the wait just armed a deadline at t. The deadline
// is keyed (t, seq) with the sequence number a deadline event scheduled
// right now would take, and that number is used up whether or not an
// event is scheduled, so no other event's key moves. An event is
// scheduled only when the proc has no live timer due at or before t:
// otherwise the live one pops first and carries itself to the deadline
// (Kernel.fireTimer), so that an expiry always pops at its own key. A
// deadline already due goes behind everything due now, as any event
// scheduled for the past does.
func (p *Proc) armDeadline(t Time) {
	k, tm := p.k, p.timer
	if tm == nil {
		tm = p.newTimer()
	}
	if t <= k.now {
		k.schedule(t, event{kind: evTimer, p: p})
		tm.at, tm.seq = k.now, k.seq
		tm.liveAt, tm.liveSeq = k.now, k.seq
		return
	}
	k.seq++
	tm.at, tm.seq = t, k.seq
	if tm.liveSeq != 0 && tm.liveAt <= t {
		return
	}
	tm.liveAt, tm.liveSeq = t, k.seq
	k.cal.insert(event{at: t, seq: k.seq, kind: evTimer, p: p})
}

// newTimer gives the proc its deadline state.
//
//go:noinline
func (p *Proc) newTimer() *procTimer {
	p.timer = &procTimer{}
	return p.timer
}

// ArmIdle is a Step's idle return (see Stepper): the proc arms nothing
// and stays parked until Wake.
func (p *Proc) ArmIdle() { p.idle = true }

// Wake resumes a proc that a step left idle, with the event Spawn
// schedules for a new proc: a resume at the current instant, behind
// everything already due. It reports false, and does nothing, for a
// proc that has finished or been killed; waking a live proc that is not
// idle is a bug and panics.
func (p *Proc) Wake() bool {
	if p.finished || p.killed {
		return false
	}
	if !p.idle {
		panic(fmt.Sprintf("sim: Wake of proc %q, which is not idle", p.name))
	}
	p.idle = false
	p.k.atResume(p.k.now, p)
	return true
}
