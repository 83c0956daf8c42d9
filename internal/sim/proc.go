package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// Proc is a simulated process: a Stepper with no goroutine at all
// (SpawnSteps), or a coroutine that the event loop switches into
// (Spawn). At most one proc runs at any instant, so proc code may touch
// shared simulation state without locks.
type Proc struct {
	k    *Kernel
	name string
	id   uint64 // spawn order, for the deadlock report
	slot int    // index in Kernel.procs while unfinished

	// resume switches from the event loop into a Spawn proc's coroutine
	// until the proc parks (true) or returns (false); yield, while the
	// proc runs, is park's switch back. Both are nil for a proc with no
	// goroutine, and once a Spawn proc has returned.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	finished bool
	killed   bool
	// idle: parked by a step that armed nothing (ArmIdle); only Wake, a
	// kill, or the end of the run resumes it.
	idle bool

	// waitSeq/waitArmed guard completion wake-ups: every Wait arms a
	// fresh sequence number, and a wake event only delivers if the proc
	// is still parked on that same wait. This lets a completion and a
	// timeout race for the same parked proc without ever resuming it
	// twice. The event loop disarms the guard when it delivers the wake.
	waitArmed bool
	waitSeq   uint64

	// timer is the proc's deadline state, carved by its first
	// ArmWaitTimeout with a deadline: most procs never arm one.
	timer *procTimer

	// stepper is the whole life of a proc with no goroutine: its resumes
	// are Step calls on the event loop.
	stepper Stepper
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

// panicStack renders where the panic being recovered was raised,
// innermost frame first, one function and its file:line per frame. It
// must be called by the deferred function that recovered it.
//
//go:noinline
func panicStack() string {
	var pcs [32]uintptr
	n := runtime.Callers(3, pcs[:]) // past the deferred function: the panic, then who raised it
	var b strings.Builder
	for frames := runtime.CallersFrames(pcs[:n]); ; {
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

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Names returns prefix+i+suffix for every i in [0, n) — "rank0",
// "rank1", … — as substrings of one string, for a family of names made
// all at once (a world's procs, a model's per-layer node labels): two
// allocations however many names there are, not one a name.
func Names(prefix string, n int, suffix string) []string {
	var b strings.Builder
	var digits [20]byte
	b.Grow(n * (len(prefix) + len(strconv.AppendInt(digits[:0], int64(n), 10)) + len(suffix)))
	names := make([]string, n)
	for i := range names {
		at := b.Len()
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		b.WriteString(suffix)
		names[i] = b.String()[at:] // a Builder never rewrites what it holds
	}
	return names
}

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

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// SetGroup does nothing: it assigned the proc's shard under the
// parallel-lookahead kernel mode, which is gone (DESIGN.md §13). It
// stays only because bench/ladder.go, which a change may not edit,
// still calls it; it goes with that rung.
func (p *Proc) SetGroup(int) {}

// park switches from the proc's coroutine back to the event loop, which
// switches in again when some event resumes this proc. A killed proc
// unwinds here instead of returning.
//
// No proc may park while a step is running, its own or another's — a
// helper's step that calls a blocking wait of its rank's main proc: the
// step runs within a resume the loop is delivering, and a park would
// leave it half done. It panics instead, naming the procs; the panic
// goes up the stepping proc's stack, or fails the run if that proc has
// no goroutine. Such a proc (SpawnSteps) has nothing to park, and
// panics too.
func (p *Proc) park() {
	if s := p.k.stepping; s == p {
		panic(fmt.Sprintf("sim: proc %q parks inside its own step", p.name))
	} else if s != nil {
		panic(fmt.Sprintf("sim: proc %q parks inside a step of proc %q", p.name, s.name))
	} else if p.yield == nil {
		panic(fmt.Sprintf("sim: proc %q has no goroutine to park", p.name))
	}
	p.yield(struct{}{})
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
// to run in between. A d ≤ 0 yields: the other events scheduled for the
// current instant run before this proc continues.
func (p *Proc) Sleep(d Duration) {
	p.k.atResume(p.k.now+max(d, 0), p)
	p.park()
}

// Wait blocks until c fires. If c has already fired it returns
// immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	if !p.ArmWaitTimeout(c, Never) {
		p.park()
	}
}

// Stepper is a proc's work as a run-to-completion continuation: the
// work between two of its waits, written as a function that returns
// instead of blocking (see SpawnSteps and RunSteps).
type Stepper interface {
	// Step runs the proc's work up to its next wait. It returns false
	// after arming exactly one wait with ArmUntil or ArmWaitTimeout, or
	// registering the proc with a Queue's TryPut or TryGet: the proc
	// stays parked and the next resume calls Step again. It returns true,
	// with no wait armed, to finish the proc — or, under RunSteps, to
	// return from RunSteps.
	//
	// The one other return is idle: false after ArmIdle, which arms
	// nothing. The proc stays parked with its stepper until Wake calls
	// Step again, and a run whose queue drains while it is idle kills it
	// instead of reporting a deadlock — the shape of a long-lived helper
	// that has nothing to do until someone hands it work.
	//
	// Step runs in the queue position of the resume it stands for: on
	// the event loop for a proc with no goroutine, on the proc's own
	// stack under RunSteps. It may do anything an event callback may —
	// schedule, fire, spawn — but must not park: no Wait or Sleep,
	// and no nested RunSteps that would park: a park there
	// panics, naming the proc. A panic raised in Step fails Run, naming
	// the proc, or, under RunSteps, goes up the proc's stack from
	// RunSteps, where its caller may recover it.
	Step(p *Proc) (done bool)
}

// Unwinder is a Stepper with work to do when its proc is killed — what
// a Spawn proc does in deferred calls as it unwinds. A proc spawned
// with SpawnSteps that is killed calls Unwind at the resume that
// finishes it, on the event loop.
type Unwinder interface {
	Unwind(p *Proc)
}

// RunSteps runs s until a step reports done, each step right here on the
// proc's own stack, parking between them. Because a step arms its next
// wait with the same kernel calls the blocking forms make, the order of
// events is the one the blocking code produces, and the one s makes as
// the stepper of a proc with no goroutine (SpawnSteps). A killed proc is
// not stepped: it unwinds from here like from any park.
func (p *Proc) RunSteps(s Stepper) {
	for !p.step(s) {
		p.park()
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

// ArmUntil arms the proc's resume at t (at the current instant, behind
// everything already scheduled for it, when t is past), for a Step: a
// Sleep without the park.
func (p *Proc) ArmUntil(t Time) { p.k.atResume(t, p) }

// ArmWaitTimeout arms the proc's wait for c, with a deadline d from now,
// for a Step. It reports whether c has already fired, in which case
// nothing is armed; otherwise the proc is resumed when c fires or at the
// deadline, whichever is first, and c.Fired tells the two apart — the
// primitive under fault-aware MPI waits (mpi.Rank.PollWait), where a
// deadline that expires without progress consults the fault plane. A wait whose d is Never
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

// newTimer gives the proc its deadline state, carved from the kernel's
// block the way newProc carves procs.
//
//go:noinline
func (p *Proc) newTimer() *procTimer {
	k := p.k
	if len(k.timerPool) == 0 {
		k.timerPool = make([]procTimer, min(max(k.spawned, 4), 16))
	}
	p.timer = &k.timerPool[0]
	k.timerPool = k.timerPool[1:]
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
