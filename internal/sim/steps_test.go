package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A wait script is a fixed list of waits one proc makes. The same
// script runs once through the blocking calls and once as a Stepper
// through their Arm twins; everything the kernel can see of the two
// runs must be equal.
// waitUntil and waitTimeout are the blocking waits, for the tests'
// goroutine procs: the Arm call, then a park.
func waitUntil(p *Proc, t Time) {
	p.ArmUntil(t)
	p.park()
}

func waitTimeout(p *Proc, c *Completion, d Duration) bool {
	if !p.ArmWaitTimeout(c, d) {
		p.park()
	}
	return c.fired
}

type waitKind int

const (
	opWait waitKind = iota
	opUntil
	opTimeout
)

type waitOp struct {
	kind waitKind
	c    *Completion
	t    Time     // opUntil: absolute
	d    Duration // opTimeout
}

// outcome is what the script observes after each wait: when it got
// control back and whether the completion had fired.
type outcome struct {
	at    Time
	fired bool
}

func runBlocking(p *Proc, ops []waitOp, log *[]outcome) {
	for _, op := range ops {
		fired := false
		switch op.kind {
		case opWait:
			p.Wait(op.c)
			fired = true
		case opUntil:
			waitUntil(p, op.t)
		case opTimeout:
			fired = waitTimeout(p, op.c, op.d)
		}
		*log = append(*log, outcome{p.Now(), fired})
	}
}

type scriptStepper struct {
	ops   []waitOp
	i     int
	armed bool
	log   *[]outcome
}

func (s *scriptStepper) Step(p *Proc) bool {
	for {
		if s.armed {
			op := s.ops[s.i]
			*s.log = append(*s.log, outcome{p.Now(), op.kind == opWait || op.kind == opTimeout && op.c.Fired()})
			s.armed = false
			s.i++
		}
		if s.i == len(s.ops) {
			return true
		}
		fired := false
		switch op := s.ops[s.i]; op.kind {
		case opWait:
			fired = p.ArmWaitTimeout(op.c, Never)
		case opUntil:
			p.ArmUntil(op.t)
		case opTimeout:
			fired = p.ArmWaitTimeout(op.c, op.d)
		}
		if fired {
			*s.log = append(*s.log, outcome{p.Now(), true})
			s.i++
			continue
		}
		s.armed = true
		return false
	}
}

// popRec is one popped event, with the proc by name: the two runs have
// different Proc values.
type popRec struct {
	at   Time
	seq  uint64
	kind evKind
	proc string
}

// scriptRun is everything a run of the script exposes.
type scriptRun struct {
	pops     []popRec
	log      []outcome
	seq      uint64
	now      Time
	finished bool
	err      string
}

// runScript runs the script on a fresh kernel. kill, when positive, is
// the time a kernel event kills the subject; killEarly schedules that
// event before the run starts, so that at its instant it precedes any
// resume of the subject due then, instead of following it.
func runScript(t *testing.T, stepped bool, kill Time, killEarly bool) scriptRun {
	t.Helper()
	k := New()
	var out scriptRun
	k.tracePop = func(ev event) {
		name := ""
		if ev.p != nil {
			name = ev.p.name
		}
		out.pops = append(out.pops, popRec{ev.at, ev.seq, ev.kind, name})
	}

	fired, late := k.NewCompletion(), k.NewCompletion()
	fireFirst, deadlineFirst, never := k.NewCompletion(), k.NewCompletion(), k.NewCompletion()
	fired.Fire()
	k.At(10, late.Fire)
	// The subject reaches the two races at t=30 and t=50 (see ops) with
	// a 10-tick deadline each. fireFirst's fire is scheduled now, ahead
	// of the deadline event the wait will schedule; deadlineFirst's only
	// at t=51, behind it.
	k.At(40, fireFirst.Fire)
	k.At(51, func() { k.At(60, deadlineFirst.Fire) })
	ops := []waitOp{
		{kind: opWait, c: fired},                    // already fired: no park
		{kind: opWait, c: late},                     // parks until 10
		{kind: opUntil, t: 5},                       // past: a yield
		{kind: opUntil, t: 30},                      // future
		{kind: opTimeout, c: fired, d: 7},           // already fired: no park
		{kind: opTimeout, c: fireFirst, d: 10},      // both at 40, fire first
		{kind: opUntil, t: 50},                      //
		{kind: opTimeout, c: deadlineFirst, d: 10},  // both at 60, deadline first
		{kind: opTimeout, c: never, d: 15},          // plain expiry at 75
		{kind: opTimeout, c: deadlineFirst, d: 100}, // fired meanwhile: no park
		{kind: opWait, c: never},                    // parks for good
	}

	var subject *Proc
	if kill > 0 && killEarly {
		k.At(kill, func() { subject.Kill() })
	}
	subject = k.Spawn("subject", func(p *Proc) {
		if stepped {
			p.RunSteps(&scriptStepper{ops: ops, log: &out.log})
		} else {
			runBlocking(p, ops, &out.log)
		}
	})
	// A bystander whose resumes interleave with the subject's.
	k.Spawn("bystander", func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(2)
		}
	})
	if kill > 0 && !killEarly {
		k.Spawn("killer", func(p *Proc) {
			waitUntil(p, kill)
			subject.Kill()
		})
	}
	if err := k.Run(); err != nil {
		out.err = err.Error()
	}
	out.seq, out.now, out.finished = k.seq, k.now, subject.finished
	return out
}

// TestStepsMatchBlockingWaits is the differential test of the step
// contract: a Stepper arming its waits with ArmUntil and
// ArmWaitTimeout makes the kernel pop exactly the events, with exactly
// the sequence numbers, that the blocking calls make it pop — through
// fired and unfired waits, past and future deadlines, a completion and
// a timeout landing on one instant in either order, and a kill that
// finds the proc parked or beats a resume already due.
func TestStepsMatchBlockingWaits(t *testing.T) {
	cases := []struct {
		name      string
		kill      Time
		killEarly bool
		deadlock  bool
	}{
		{name: "parks for good", deadlock: true},
		{name: "killed while armed", kill: 90},
		{name: "killed mid-wait before a race", kill: 35},
		{name: "kill beats a due resume", kill: 30, killEarly: true},
		{name: "kill follows a due resume", kill: 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runScript(t, false, tc.kill, tc.killEarly)
			got := runScript(t, true, tc.kill, tc.killEarly)
			if tc.deadlock != strings.Contains(want.err, "deadlock") || want.finished == tc.deadlock {
				t.Fatalf("blocking run: err %q, subject finished %v: the script does not reach its last wait", want.err, want.finished)
			}
			if !tc.deadlock && want.err != "" {
				t.Fatalf("blocking run failed: %s", want.err)
			}
			if len(want.pops) < 20 {
				t.Fatalf("blocking run popped only %d events", len(want.pops))
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("outcomes differ:\nstepped  %v\nblocking %v", got.log, want.log)
			}
			for i := 0; i < len(want.pops) || i < len(got.pops); i++ {
				var w, g popRec
				if i < len(want.pops) {
					w = want.pops[i]
				}
				if i < len(got.pops) {
					g = got.pops[i]
				}
				if w != g {
					t.Fatalf("pop %d: stepped %+v, blocking %+v", i, g, w)
				}
			}
			if got.seq != want.seq || got.now != want.now || got.finished != want.finished || got.err != want.err {
				t.Errorf("stepped run ended seq %d at %v finished=%v err %q; blocking seq %d at %v finished=%v err %q",
					got.seq, got.now, got.finished, got.err, want.seq, want.now, want.finished, want.err)
			}
		})
	}
}

// sleeper is a Stepper that sleeps left times.
type sleeper struct{ left int }

func (s *sleeper) Step(p *Proc) bool {
	if s.left == 0 {
		return true
	}
	s.left--
	p.ArmUntil(p.Now() + 3)
	return false
}

// TestStepPanicFailsTheSteppingProc: a panic in a Step under RunSteps
// that nobody recovers fails the run in the stepping proc's name, with
// the step's stack, and takes nobody else down.
func TestStepPanicFailsTheSteppingProc(t *testing.T) {
	k := New()
	bystander := k.Spawn("bystander", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1) // its resumes interleave with the steps
		}
		p.Sleep(1000)
	})
	var after bool
	stepper := k.Spawn("stepper", func(p *Proc) {
		p.RunSteps(&panicker{at: 3})
		after = true
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "stepper" panicked`) || !strings.Contains(err.Error(), "boom at step 3") {
		t.Fatalf("Run returned %v, want the stepper's panic", err)
	}
	// The place must name the step that panicked, and where.
	if !strings.Contains(err.Error(), "panicker).Step\n") || !strings.Contains(err.Error(), "steps_test.go:") {
		t.Errorf("the failure lost the step's stack:\n%v", err)
	}
	if after {
		t.Error("RunSteps returned normally after its step panicked")
	}
	if !stepper.Finished() {
		t.Error("the stepping proc did not unwind")
	}
	if bystander.Finished() {
		t.Error("the proc whose goroutine ran the step was marked finished; it is parked")
	}
}

// panicker steps through short sleeps and panics in step number at.
type panicker struct{ n, at int }

func (s *panicker) Step(p *Proc) bool {
	if s.n++; s.n == s.at {
		panic(fmt.Sprint("boom at step ", s.n))
	}
	p.ArmUntil(p.Now() + 2)
	return false
}

// TestParkInStepPanics: a step must not park, and one that does — here
// a WaitUntil in its second step, after a park — gets a panic naming its
// proc from RunSteps instead of leaving the step half done. A step that
// parks the first time gets it too, and RunSteps leaves the proc free to
// park once its step is over.
func TestParkInStepPanics(t *testing.T) {
	k := New()
	var got [2]any
	var after Time
	k.Spawn("stepper", func(p *Proc) {
		for i, at := range []int{2, 1} {
			func() {
				defer func() { got[i] = recover() }()
				p.RunSteps(&parker{at: at})
			}()
		}
		waitUntil(p, p.Now()+5)
		after = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		if msg, _ := rec.(string); !strings.Contains(msg, `proc "stepper" parks inside its own step`) {
			t.Errorf("run %d: RunSteps raised %v, want the park-in-step panic", i, rec)
		}
	}
	if after != 7 {
		t.Errorf("the proc's own wait after the panics ended at %v, want 7", after)
	}
}

// parker arms short waits and parks in step number at.
type parker struct{ n, at int }

func (s *parker) Step(p *Proc) bool {
	if s.n++; s.n == s.at {
		waitUntil(p, p.Now()+10)
	}
	p.ArmUntil(p.Now() + 2)
	return false
}
