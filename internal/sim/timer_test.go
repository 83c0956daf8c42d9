package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The timer equivalence tests run one script of waits twice: once with
// the deadline as the kernel used to arm it — one guarded resume event
// per wait (perWaitDeadline) — and once with ArmWaitTimeout's per-proc
// timer. Everything a proc can observe must be equal, every expiry must
// be delivered by an event at the key its deadline took when it was
// armed, and the kernel must end on the same sequence number.

// perWaitDeadline is ArmWaitTimeout as it was before the per-proc
// timer: a guarded resume of the proc, scheduled at the deadline.
func perWaitDeadline(p *Proc, c *Completion, d Duration) bool {
	if c.fired {
		return true
	}
	seq := p.armWait()
	c.addWaiter(waiter{p, seq})
	p.k.atResumeIf(p.k.now+d, p, seq)
	return false
}

func timerDeadline(p *Proc, c *Completion, d Duration) bool { return p.ArmWaitTimeout(c, d) }

type key struct {
	at  Time
	seq uint64
}

func (a key) less(b key) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

type tKind int

const (
	tTimeout tKind = iota // wait for a completion, with a deadline
	tWait                 // wait for a completion
	tSleep
)

// Completion fire times of a tOp that are not offsets.
const (
	fireNever  Duration = -1 // nobody fires it
	fireBefore Duration = -2 // it has fired before the wait starts
)

// tOp is one wait of a proc's script.
type tOp struct {
	kind tKind
	d    Duration // tTimeout: the timeout; tSleep: the sleep
	// fire is when the completion fires, from when the wait starts, or
	// fireNever or fireBefore. The fire event is scheduled before the
	// wait is armed unless late is set: at a shared instant the fire
	// then comes before the deadline, and after it when late.
	fire Duration
	late bool
}

// tPlan is the whole script: each proc's waits, and kernel events that
// kill a proc.
type tPlan struct {
	procs [][]tOp
	kills []tKill
}

type tKill struct {
	proc int
	at   Time
}

// waitRec is what one wait observed.
type waitRec struct {
	proc     int
	op       int
	armedAt  Time
	deadline key // tTimeout: the key its deadline event took, or reserved
	fired    bool
	doneAt   Time
	by       key // the event that resumed the proc; zero when it never parked
}

// timerRun is one run of a plan.
type timerRun struct {
	arm   func(p *Proc, c *Completion, d Duration) bool
	last  event // the event the loop popped last
	pops  []popRec
	waits []waitRec
	seq   uint64
	err   string
	done  []bool // by proc: finished

	// What the run went through. The first three only happen with
	// timers.
	shorter   int // deadlines armed under a live timer due later
	carried   int // timer events carried to a reserved key
	inFront   int // carried timers that popped ahead of later-seq events already due at their instant
	collideFD int // completion fire and deadline on one instant, fire first
	collideDF int // the same, deadline first
}

// wait returns the record of proc's wait number op.
func (r *timerRun) wait(proc, op int) waitRec {
	for _, w := range r.waits {
		if w.proc == proc && w.op == op {
			return w
		}
	}
	return waitRec{}
}

// tProc runs one proc's script as its Stepper.
type tProc struct {
	run    *timerRun
	id     int
	ops    []tOp
	i      int
	c      *Completion
	rec    waitRec
	parked bool
}

// begin starts the current wait and reports whether the proc must park
// for it; a wait that is over at once is recorded and the script moves
// on.
func (s *tProc) begin(p *Proc) bool {
	k := p.k
	op := s.ops[s.i]
	s.rec = waitRec{proc: s.id, op: s.i, armedAt: k.now}
	s.c = nil
	if op.kind == tSleep {
		p.ArmUntil(k.now + op.d)
		return true
	}
	c := k.NewCompletion()
	s.c = c
	switch {
	case op.fire == fireBefore:
		c.Fire()
	case op.fire >= 0 && !op.late:
		k.At(k.now+op.fire, c.Fire)
	}
	var fired bool
	if op.kind == tTimeout {
		s.rec.deadline = key{k.now + op.d, k.seq + 1}
		if tm := p.timer; tm != nil && tm.liveSeq != 0 && tm.liveAt > k.now+op.d {
			s.run.shorter++
		}
		fired = s.run.arm(p, c, op.d)
	} else {
		fired = p.ArmWaitTimeout(c, Never)
	}
	if fired {
		s.finish(p, false)
		return false
	}
	if op.fire >= 0 && op.late {
		k.At(k.now+op.fire, c.Fire)
	}
	return true
}

// finish records the current wait's outcome; resumed says whether an
// event resumed the proc for it.
func (s *tProc) finish(p *Proc, resumed bool) {
	s.rec.doneAt = p.Now()
	if s.c != nil {
		s.rec.fired = s.c.Fired()
	}
	if resumed {
		s.rec.by = key{s.run.last.at, s.run.last.seq}
	}
	s.run.waits = append(s.run.waits, s.rec)
	s.i++
}

func (s *tProc) Step(p *Proc) bool {
	if s.parked {
		s.parked = false
		s.finish(p, true)
	}
	for s.i < len(s.ops) {
		if s.begin(p) {
			s.parked = true
			return false
		}
	}
	return true
}

// runPlan runs the plan on a fresh kernel with the given deadline arm.
func runPlan(plan *tPlan, arm func(p *Proc, c *Completion, d Duration) bool) *timerRun {
	k := New()
	run := &timerRun{arm: arm}
	procs := make([]*Proc, len(plan.procs))
	// A carried timer keeps the seq it reserved, which is older than the
	// clock's: the seq the kernel had reached when the proc's previous
	// timer popped (and carried it) says which events were already
	// pending then.
	carriedAt := map[*Proc]uint64{}
	var watch struct {
		key
		upTo uint64
	}
	k.tracePop = func(ev event) {
		name := ""
		if ev.p != nil {
			name = ev.p.name
		}
		run.pops = append(run.pops, popRec{ev.at, ev.seq, ev.kind, name})
		if ev.at == watch.at && ev.seq > watch.seq && ev.seq <= watch.upTo {
			run.inFront++
			watch.upTo = 0
		}
		if ev.kind == evTimer {
			if q, ok := carriedAt[ev.p]; ok && ev.seq <= q && ev.p.timer.liveSeq == ev.seq {
				run.carried++
				watch.key, watch.upTo = key{ev.at, ev.seq}, q
			}
			carriedAt[ev.p] = k.seq
		}
		run.last = ev
	}
	for i, ops := range plan.procs {
		procs[i] = k.SpawnSteps(fmt.Sprint("p", i), &tProc{run: run, id: i, ops: ops})
	}
	for _, kl := range plan.kills {
		victim := kl.proc
		k.At(kl.at, func() { procs[victim].Kill() })
	}
	if err := k.Run(); err != nil {
		run.err = err.Error()
	}
	run.seq = k.seq
	for _, p := range procs {
		run.done = append(run.done, p.finished)
	}
	for _, w := range run.waits {
		op := plan.procs[w.proc][w.op]
		if op.kind != tTimeout || op.fire < 0 || w.armedAt+op.fire != w.deadline.at || w.by == (key{}) {
			continue
		}
		if w.fired {
			run.collideFD++
		} else {
			run.collideDF++
		}
	}
	return run
}

// checkTimerPlan runs plan both ways and compares.
func checkTimerPlan(t *testing.T, plan *tPlan) (want, got *timerRun) {
	t.Helper()
	want = runPlan(plan, perWaitDeadline)
	got = runPlan(plan, timerDeadline)
	for name, r := range map[string]*timerRun{"per-wait": want, "timer": got} {
		for i := 1; i < len(r.pops); i++ {
			a, b := r.pops[i-1], r.pops[i]
			if !(key{a.at, a.seq}).less(key{b.at, b.seq}) {
				t.Fatalf("%s run: pop %d (%v, %d) does not follow pop %d (%v, %d)", name, i, b.at, b.seq, i-1, a.at, a.seq)
			}
		}
		for _, w := range r.waits {
			op := plan.procs[w.proc][w.op]
			if op.kind == tTimeout && !w.fired && w.by != w.deadline {
				t.Fatalf("%s run: proc %d wait %d expired by the event at %+v; its deadline was %+v", name, w.proc, w.op, w.by, w.deadline)
			}
		}
	}
	if len(want.waits) < len(plan.procs) {
		t.Fatalf("the script ran only %d waits", len(want.waits))
	}
	if !reflect.DeepEqual(got.waits, want.waits) {
		for i := range want.waits {
			if i >= len(got.waits) || got.waits[i] != want.waits[i] {
				var g waitRec
				if i < len(got.waits) {
					g = got.waits[i]
				}
				t.Fatalf("wait record %d: timer %+v, per-wait %+v", i, g, want.waits[i])
			}
		}
		t.Fatalf("timer run recorded %d waits, per-wait run %d", len(got.waits), len(want.waits))
	}
	// Events that are neither deadlines nor completion wakes are the
	// same events in both runs.
	other := func(r *timerRun) []popRec {
		var out []popRec
		for _, p := range r.pops {
			if p.kind != evTimer && p.kind != evResumeIf {
				out = append(out, p)
			}
		}
		return out
	}
	if !reflect.DeepEqual(other(got), other(want)) {
		t.Fatalf("the timer run popped other events than the per-wait run")
	}
	if got.seq != want.seq || got.err != want.err || !reflect.DeepEqual(got.done, want.done) {
		t.Fatalf("timer run ended at seq %d, err %q, finished %v; per-wait run at seq %d, err %q, finished %v",
			got.seq, got.err, got.done, want.seq, want.err, want.done)
	}
	return want, got
}

// TestTimerMatchesPerWaitDeadlines is the differential over random
// scripts: several procs arming deadlines on a
// coarse grid of times so that fires, deadlines and other procs' events
// share instants, with completions that fire before the wait, during it
// (scheduled ahead of the deadline or behind it) or never, plain waits
// and sleeps between them, and kills at random times.
func TestTimerMatchesPerWaitDeadlines(t *testing.T) {
	var total timerRun
	for seed := uint64(1); seed <= 60; seed++ {
		g := lcg(seed * 0x9e3779b97f4a7c15)
		pick := func(xs ...Duration) Duration { return xs[g.next()%uint64(len(xs))] }
		plan := &tPlan{}
		procs := 2 + int(g.next()%5)
		for i := 0; i < procs; i++ {
			var ops []tOp
			for j := 0; j < 20+int(g.next()%20); j++ {
				switch r := g.next() % 10; {
				case r < 6:
					ops = append(ops, tOp{kind: tTimeout, d: pick(0, 4, 8, 12, 40, 80),
						fire: pick(fireNever, fireNever, fireBefore, 0, 4, 8, 12, 40), late: g.next()%2 == 0})
				case r < 8:
					ops = append(ops, tOp{kind: tWait, fire: pick(0, 4, 8, 20), late: g.next()%2 == 0})
				default:
					ops = append(ops, tOp{kind: tSleep, d: pick(0, 4, 8, 30)})
				}
			}
			plan.procs = append(plan.procs, ops)
		}
		for n := g.next() % 3; n > 0; n-- {
			plan.kills = append(plan.kills, tKill{proc: int(g.next() % uint64(procs)), at: Time(g.next() % 600)})
		}
		_, got := checkTimerPlan(t, plan)
		total.shorter += got.shorter
		total.carried += got.carried
		total.inFront += got.inFront
		total.collideFD += got.collideFD
		total.collideDF += got.collideDF
	}
	t.Logf("%d shorter deadlines under a live timer, %d timers carried, %d of them in front of later events, %d fire-then-deadline and %d deadline-then-fire collisions",
		total.shorter, total.carried, total.inFront, total.collideFD, total.collideDF)
	if total.shorter == 0 || total.carried == 0 || total.inFront == 0 || total.collideFD == 0 || total.collideDF == 0 {
		t.Errorf("the random scripts missed a case the timer must get right")
	}
}

// TestTimerScenarios pins the cases one at a time.
func TestTimerScenarios(t *testing.T) {
	cases := []struct {
		name  string
		plan  tPlan
		check func(got *timerRun) bool
	}{{
		// A deadline at 40 is armed, its completion fires at 4, and the
		// next wait's deadline at 12 comes before the live timer: it needs
		// a timer of its own, and the one at 40 lapses.
		name: "shorter deadline under a live timer",
		plan: tPlan{procs: [][]tOp{{
			{kind: tTimeout, d: 40, fire: 4},
			{kind: tTimeout, d: 8, fire: fireNever},
			{kind: tSleep, d: 50},
		}}},
		check: func(got *timerRun) bool { return got.shorter == 1 && got.wait(0, 1).doneAt == 12 },
	}, {
		// A's timer at 10 finds A in a later wait whose deadline is 20 and
		// carries itself there; B's resume at 20, scheduled at 3, already
		// waits at that instant with a later seq.
		name: "carried into an instant holding later events",
		plan: tPlan{procs: [][]tOp{
			{{kind: tTimeout, d: 10, fire: 2}, {kind: tTimeout, d: 18, fire: fireNever}},
			{{kind: tSleep, d: 3}, {kind: tSleep, d: 17}},
		}},
		check: func(got *timerRun) bool { return got.carried == 1 && got.inFront == 1 },
	}, {
		// The same, with the new deadline on the live timer's own instant:
		// the timer carries itself into the instant being popped.
		name: "carried into the current instant",
		plan: tPlan{procs: [][]tOp{
			{{kind: tTimeout, d: 10, fire: 2}, {kind: tTimeout, d: 8, fire: fireNever}},
			{{kind: tSleep, d: 3}, {kind: tSleep, d: 7}},
		}},
		check: func(got *timerRun) bool { return got.carried == 1 && got.inFront == 1 && got.wait(0, 1).doneAt == 10 },
	}, {
		name: "fire and deadline on one instant, fire first",
		plan: tPlan{procs: [][]tOp{{{kind: tTimeout, d: 8, fire: 8}}}},
		check: func(got *timerRun) bool {
			return got.collideFD == 1 && got.waits[0].fired
		},
	}, {
		name: "fire and deadline on one instant, deadline first",
		plan: tPlan{procs: [][]tOp{{{kind: tTimeout, d: 8, fire: 8, late: true}}}},
		check: func(got *timerRun) bool {
			return got.collideDF == 1 && !got.waits[0].fired
		},
	}, {
		// Killed while its deadline is live: the timer lapses.
		name: "killed under a live timer",
		plan: tPlan{procs: [][]tOp{{{kind: tSleep, d: 5}, {kind: tTimeout, d: 50, fire: fireNever}}},
			kills: []tKill{{0, 20}}},
		check: func(got *timerRun) bool { return got.done[0] && len(got.waits) == 1 },
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got := checkTimerPlan(t, &tc.plan)
			if !tc.check(got) {
				t.Errorf("the scenario did not go as built: %+v", *got)
			}
		})
	}
}
