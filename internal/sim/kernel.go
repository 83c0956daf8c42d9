// Package sim implements a deterministic discrete-event simulation
// kernel. Simulated processes ("procs") are steppers with no goroutine
// (SpawnSteps), or coroutines (Spawn) that the event loop switches into
// and that switch back when they wait: the loop runs on the goroutine
// that called Run, and exactly one proc (or the kernel itself) executes
// at a time. Events are ordered by (virtual time, sequence number), so a
// simulation with a fixed set of inputs is bit-for-bit reproducible
// across runs.
//
// The kernel carries virtual time only; wall-clock time spent in Go
// code inside a proc is invisible to the simulation. A proc advances
// virtual time explicitly (ArmUntil, Sleep) or by waiting on
// Completions fired by scheduled events (ArmWaitTimeout, Wait).
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is a distinct
// name for readability; arithmetic mixes freely with Time.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is the deadline that never comes: a wait armed with it
// (ArmWaitTimeout) ends only when its completion fires, exactly as one
// armed with no deadline at all.
const Never Duration = 1<<63 - 1

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of ms.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of µs.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create one with New.
type Kernel struct {
	now      Time
	seq      uint64
	nowQ     nowRing
	cal      calendarQueue
	procs    []*Proc // spawned and not yet finished; see dropProc
	spawned  uint64  // procs ever spawned; the newest proc's id
	procPool []Proc  // what is left of the block new procs are carved from
	maxTime  Time
	stopped  bool
	inHook   bool  // running an evFunc or evRun event; see InHook
	stepping *Proc // the proc whose step is running, if any; see park
	failure  error
	compPool []*Completion
	// timerPool is what is left of the block deadline states are carved
	// from (Proc.newTimer).
	timerPool []procTimer

	resumes Resumes

	// tracePop, when set (tests), sees every event the loop pops.
	tracePop func(event)
}

// Resumes counts how the event loop delivered proc resumes, by kind. It
// is the scoreboard of the handoff cost: only Switches leave the event
// loop's stack.
type Resumes struct {
	// Switches are resumes of a Spawn proc: a switch into its coroutine,
	// which runs until it waits again (a step under RunSteps included)
	// or returns.
	Switches uint64
	// Steps are resumes run inline on the event loop as a step of a proc
	// with no goroutine (SpawnSteps), but for the ones Finishes counts.
	Steps uint64
	// Finishes are the resumes that finished a proc with no goroutine:
	// its step reported done, or it was killed.
	Finishes uint64
	// StaleWakes are resumes that dissolved: a completion's wake for a
	// wait the proc left between the fire and the pop (a deadline due at
	// the same instant went first), and deadline timers that found their
	// proc no longer in a wait with a deadline, or finished, or were
	// overtaken by a shorter deadline. A timer that finds the deadline
	// moved later and carries itself there is not one. A waiter already
	// stale when its completion fires is given no event (Completion.Fire)
	// and is not counted.
	StaleWakes uint64
}

// Resumes returns the kernel's resume counters so far.
func (k *Kernel) Resumes() Resumes { return k.resumes }

// New returns a fresh kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{maxTime: 1 << 62}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// InHook reports whether the kernel is running an event hook — a
// Kernel.At or Completion.OnFire callback, or a Runnable's RunEvent —
// rather than a proc or a proc's step. No proc is there to wait on
// anything a hook starts, so layers above use it to refuse such work.
func (k *Kernel) InHook() bool { return k.inHook }

// SetDeadline makes Run fail if virtual time would pass t. Useful as a
// watchdog against runaway simulations.
func (k *Kernel) SetDeadline(t Time) { k.maxTime = t }

// schedule stamps e with its due time and sequence number and routes
// it to the same-instant ring or the calendar. Past times clamp to
// now, so the event runs at the current instant but strictly after
// everything already scheduled for it.
func (k *Kernel) schedule(t Time, e event) {
	if t <= k.now {
		k.seq++
		e.at, e.seq = k.now, k.seq
		k.nowQ.push(e)
		return
	}
	k.seq++
	e.at, e.seq = t, k.seq
	k.cal.insert(e)
}

// At schedules fn to run in kernel context at virtual time t. If t is
// in the past it runs at the current time (but strictly after all
// previously scheduled events for that time).
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now+d, fn) }

// AtRun schedules r's RunEvent to execute in kernel context at
// virtual time t. It is the closure-free analogue of At for pooled
// event records owned by higher layers.
func (k *Kernel) AtRun(t Time, r Runnable) {
	k.schedule(t, event{kind: evRun, run: r})
}

// atResume schedules an unconditional resume of p at time t.
func (k *Kernel) atResume(t Time, p *Proc) {
	k.schedule(t, event{kind: evResume, p: p})
}

// atResumeIf schedules a guarded resume of p at time t, delivered
// only if p is still parked on the wait armed with seq.
func (k *Kernel) atResumeIf(t Time, p *Proc, seq uint64) {
	k.schedule(t, event{kind: evResumeIf, p: p, aux: seq})
}

// popEvent removes the globally-minimum event under the two-tier pop
// rule: a calendar event due at or before now always precedes every
// ring event (it was scheduled strictly earlier — smaller seq); an
// empty ring lets the calendar minimum advance virtual time.
func (k *Kernel) popEvent() event {
	if t, ok := k.cal.minTime(); ok && t <= k.now {
		return k.cal.pop()
	}
	if k.nowQ.len() > 0 {
		return k.nowQ.pop()
	}
	return k.cal.pop()
}

// pending returns the number of queued events.
func (k *Kernel) pending() int { return k.nowQ.len() + k.cal.count }

// loop runs events until none remain, Stop is called, the deadline
// passes, or a failure is recorded. It runs on the goroutine that called
// Run: a resume of a Spawn proc switches into the proc's coroutine, which
// switches back here when it waits again or returns, so exactly one stack
// runs at any moment and kernel state needs no locking.
func (k *Kernel) loop() {
	for !k.stopped && k.failure == nil && k.pending() > 0 {
		ev := k.popEvent()
		if ev.at > k.maxTime {
			k.failure = fmt.Errorf("sim: deadline exceeded at %v (deadline %v)", ev.at, k.maxTime)
			return
		}
		k.now = ev.at
		if k.tracePop != nil {
			k.tracePop(ev)
		}
		switch ev.kind {
		case evResume:
			if !ev.p.finished {
				k.deliver(ev.p)
			}
		case evResumeIf:
			p := ev.p
			if !(waiter{p, ev.aux}).live() {
				k.resumes.StaleWakes++
				continue // stale wake: the proc timed out or moved on
			}
			p.waitArmed = false
			k.deliver(p)
		case evTimer:
			if k.fireTimer(ev) {
				k.deliver(ev.p)
			}
		case evFunc:
			k.inHook = true
			ev.fn()
			k.inHook = false
		case evRun:
			k.inHook = true
			ev.run.RunEvent(k)
			k.inHook = false
		}
	}
}

// deliver resumes the live parked proc p. A Spawn proc's resume is a
// switch into its coroutine, which runs until it parks again or returns.
// A proc with no goroutine (SpawnSteps) runs its next step right here;
// the step that reports done finishes it, and so does a kill, without a
// step (an Unwinder hears of it first).
func (k *Kernel) deliver(p *Proc) {
	if p.resume != nil {
		k.resumes.Switches++
		if _, parked := p.resume(); !parked {
			p.resume = nil // the proc has returned
		}
		return
	}
	if !p.killed && !k.step(p) {
		k.resumes.Steps++
		return
	}
	if u, ok := p.stepper.(Unwinder); ok && p.killed {
		u.Unwind(p)
	}
	p.stepper = nil
	k.resumes.Finishes++
	k.finish(p)
}

// fireTimer handles a popped deadline timer and reports whether it
// expires its proc's wait, which the caller then delivers. The live
// timer never pops later than the deadline of the wait the proc is in
// (Proc.armDeadline), so when it pops the proc is either in the wait
// whose deadline this is — an expiry, at exactly the key a per-wait
// deadline event would have had — or in a later wait with a later
// deadline, to which the timer carries itself, or in no wait with a
// deadline at all. The carried event keeps the deadline's reserved
// sequence number, older than anything scheduled since, so the calendar
// places it among the events already due at that instant
// (calendarQueue.insert); the ring never receives one, since a deadline
// whose time has come when its timer pops was reserved before the
// clock reached it.
func (k *Kernel) fireTimer(ev event) (expired bool) {
	p := ev.p
	tm := p.timer
	if p.finished || tm.liveSeq != ev.seq {
		k.resumes.StaleWakes++ // overtaken by a shorter deadline, or the proc is gone
		return false
	}
	tm.liveSeq = 0
	if !p.waitArmed || tm.seq == 0 {
		k.resumes.StaleWakes++ // the wait ended; the proc armed no deadline since
		return false
	}
	if tm.seq == ev.seq {
		p.waitArmed = false
		return true
	}
	tm.liveAt, tm.liveSeq = tm.at, tm.seq
	k.cal.insert(event{at: tm.at, seq: tm.seq, kind: evTimer, p: p})
	return false
}

// step runs one step of p's stepper on the event loop. A panic in it
// must not unwind the loop, and p has no stack of its own for it to go
// up: it fails the run, naming p, and the step counts as done.
func (k *Kernel) step(p *Proc) (done bool) {
	defer func() {
		if rec := recover(); rec != nil {
			k.fail(p, rec, panicStack())
			done = true
		}
	}()
	return p.step(p.stepper)
}

// Run executes the event loop until no events remain, then verifies
// that every spawned proc has finished. Procs left idle by their steps
// (Stepper, ArmIdle) are not stuck, only unemployed: they are killed at
// the instant the queue drains, and the loop runs again to unwind them.
// It returns an error on deadlock (procs remain parked in a wait with no
// pending events) or if the deadline set by SetDeadline is exceeded.
func (k *Kernel) Run() error {
	for {
		k.loop()
		if k.failure != nil {
			return k.failure
		}
		if k.stopped || !k.retireIdle() {
			break
		}
	}
	if len(k.procs) > 0 {
		// The table holds exactly the unfinished procs, in an order
		// finished ones disturbed: report them in spawn order.
		sort.Slice(k.procs, func(i, j int) bool { return k.procs[i].id < k.procs[j].id })
		stuck := make([]string, len(k.procs))
		for i, p := range k.procs {
			p.slot = i
			stuck[i] = p.name
		}
		return fmt.Errorf("sim: deadlock at %v: %d proc(s) parked: %v", k.now, len(stuck), stuck)
	}
	return nil
}

// retireIdle kills every idle proc and reports whether there was one.
func (k *Kernel) retireIdle() (retired bool) {
	for _, p := range k.procs {
		if p.idle && !p.killed {
			p.Kill()
			retired = true
		}
	}
	return retired
}

// Stop aborts the event loop after the current event completes.
// Remaining parked procs stay parked; callers that Stop mid-run should
// not reuse the kernel.
func (k *Kernel) Stop() { k.stopped = true }

// Spawn creates a new simulated process running fn and schedules it to
// start at the current virtual time. It may be called before Run or
// from within any proc or event callback. The proc is a coroutine:
// every resume switches into it from the event loop, and it switches
// back when it waits (park) or returns.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name)
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			// A panicking proc fails the whole simulation rather than
			// the process: Run surfaces it as an error. The kill
			// sentinel is the exception — a killed proc is a normal
			// (if abrupt) exit.
			if rec := recover(); rec != nil && rec != (procKilled{}) {
				k.fail(p, rec, panicStack())
			}
			p.yield = nil
			k.finish(p)
		}()
		if !p.killed { // killed before its first resume: it never starts
			p.yield = yield
			fn(p)
		}
	})
	k.atResume(k.now, p)
	return p
}

// SpawnSteps creates a proc with no goroutine, whose whole life is s,
// and schedules its start at the current virtual time, as Spawn does.
// That resume runs s's first Step, on the event loop like every later
// one, and the step that reports done finishes the proc where a Spawn
// proc would return from its function. A kill finishes it at its next
// resume, without a step (an Unwinder hears of it then); a step's panic
// fails Run, naming the proc.
// Nothing may park it — a step's blocking call panics, as in any step —
// and idling (ArmIdle) and the deadlock report treat it like any proc.
func (k *Kernel) SpawnSteps(name string, s Stepper) *Proc {
	p := k.newProc(name)
	p.stepper = s
	k.atResume(k.now, p)
	return p
}

// newProc adds a proc to the table of live procs, carved from blocks as
// large as all the kernel spawned before (within bounds), not one a proc.
func (k *Kernel) newProc(name string) *Proc {
	if len(k.procPool) == 0 {
		k.procPool = make([]Proc, min(max(k.spawned, 4), 16))
	}
	p := &k.procPool[0]
	k.procPool = k.procPool[1:]
	k.spawned++
	*p = Proc{k: k, name: name, id: k.spawned, slot: len(k.procs)}
	k.procs = append(k.procs, p)
	return p
}

// fail records p's panic as the run's failure, unless one came first.
// stack is where it was raised (panicStack).
func (k *Kernel) fail(p *Proc, rec any, stack string) {
	if k.failure == nil {
		k.failure = fmt.Errorf("sim: proc %q panicked at %v: %v\n%s", p.name, k.now, rec, stack)
	}
}

// finish marks p finished and takes it out of the table of live procs.
func (k *Kernel) finish(p *Proc) {
	p.finished = true
	k.dropProc(p)
}

// dropProc takes a finished proc out of the table of live procs, which
// only the deadlock check and idle retirement read: a run that spawns
// procs as it goes must not keep every one of them (and what their
// closures hold) for the kernel's lifetime.
func (k *Kernel) dropProc(p *Proc) {
	last := len(k.procs) - 1
	moved := k.procs[last]
	k.procs[p.slot], moved.slot = moved, p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
}

// SetParallel does nothing and Batches reports none: they armed and
// counted the parallel-lookahead kernel mode, which is gone (DESIGN.md
// §13). They stay only because bench/ladder.go, which a change may not
// edit, still calls them; they go with that rung.
func (k *Kernel) SetParallel(int, Duration) {}

// Batches: see SetParallel.
func (k *Kernel) Batches() (batches, segments uint64) { return 0, 0 }
