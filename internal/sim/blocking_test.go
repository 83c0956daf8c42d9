package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// These are the tests of the blocking forms themselves: Spawn's
// coroutine, park, the blocking waits and RunSteps, each against the
// steps that every run's procs take instead. The forms and this file go
// together.

// A wait script (steps_test.go) runs once through the blocking calls and
// once as a Stepper through their Arm twins; everything the kernel can
// see of the two runs must be equal. waitUntil and waitTimeout are the
// blocking waits, for the tests' goroutine procs: the Arm call, then a
// park.
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

// runFree runs a wait script, which ends in a wait that never ends if
// forever, as the stepper of a proc with no goroutine
// (free) or under RunSteps on a goroutine proc, beside a bystander whose
// sleeps interleave with it. killAt, when kill is set, is when a kernel
// event kills the subject; killEarly schedules that event before anything
// else, so that at its instant it precedes the subject's resume due then.
func runFree(t *testing.T, free, forever, kill bool, killAt Time, killEarly bool) scriptRun {
	t.Helper()
	k := New()
	never, fired := k.NewCompletion(), k.NewCompletion()
	fired.Fire()
	ops := []waitOp{
		{kind: opWait, c: fired},           // already fired: no park
		{kind: opTimeout, c: never, d: 15}, // plain expiry at 15
		{kind: opUntil, t: 5},              // past: a yield
		{kind: opUntil, t: 40},             // future
	}
	if forever {
		ops = append(ops, waitOp{kind: opWait, c: never})
	}
	var out scriptRun
	k.tracePop = func(ev event) {
		name := ""
		if ev.p != nil {
			name = ev.p.name
		}
		out.pops = append(out.pops, popRec{ev.at, ev.seq, ev.kind, name})
	}
	var subject *Proc
	if kill && killEarly {
		k.At(killAt, func() { subject.Kill() })
	}
	s := &scriptStepper{ops: ops, log: &out.log}
	if free {
		subject = k.SpawnSteps("subject", s)
	} else {
		subject = k.Spawn("subject", func(p *Proc) { p.RunSteps(s) })
	}
	k.Spawn("bystander", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Sleep(2)
		}
	})
	if kill && !killEarly {
		k.At(killAt, func() { subject.Kill() })
	}
	if err := k.Run(); err != nil {
		out.err = err.Error()
	}
	out.seq, out.now, out.finished = k.seq, k.now, subject.finished
	return out
}

// TestSpawnStepsMatchesRunSteps: a proc with no goroutine makes the kernel
// pop exactly the events, with exactly the sequence numbers, that the same
// stepper under RunSteps makes it pop, from its first resume to its end —
// finishing, parked for good, or killed before its first step, while
// parked, or by a kill that beats a resume already due.
func TestSpawnStepsMatchesRunSteps(t *testing.T) {
	cases := []struct {
		name      string
		forever   bool
		kill      bool
		killAt    Time
		killEarly bool
	}{
		{name: "finishes"},
		{name: "parks for good", forever: true},
		{name: "killed before its first step", kill: true, killEarly: true},
		{name: "killed while parked", kill: true, killAt: 30, forever: true},
		{name: "kill beats a due resume", kill: true, killAt: 40, killEarly: true},
		{name: "kill follows a due resume", kill: true, killAt: 40, forever: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runFree(t, false, tc.forever, tc.kill, tc.killAt, tc.killEarly)
			got := runFree(t, true, tc.forever, tc.kill, tc.killAt, tc.killEarly)
			if tc.forever && !tc.kill && !strings.Contains(want.err, `deadlock at 60ns: 1 proc(s) parked: [subject]`) {
				t.Fatalf("RunSteps run: err %q, want the subject in a deadlock report", want.err)
			}
			if len(want.pops) < 10 {
				t.Fatalf("RunSteps run popped only %d events", len(want.pops))
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("outcomes differ:\nno goroutine %v\nRunSteps     %v", got.log, want.log)
			}
			if !reflect.DeepEqual(got.pops, want.pops) {
				t.Errorf("pops differ:\nno goroutine %v\nRunSteps     %v", got.pops, want.pops)
			}
			if got.seq != want.seq || got.now != want.now || got.finished != want.finished || got.err != want.err {
				t.Errorf("no-goroutine run ended seq %d at %v finished=%v err %q; RunSteps seq %d at %v finished=%v err %q",
					got.seq, got.now, got.finished, got.err, want.seq, want.now, want.finished, want.err)
			}
		})
	}
}

// TestSpawnStepsBlockingCallPanics: a blocking call in a step of a proc
// with no goroutine — its first step or a later one — fails the run,
// naming the proc; so does one that another proc makes on its behalf.
func TestSpawnStepsBlockingCallPanics(t *testing.T) {
	for _, at := range []int{1, 2} {
		k := New()
		k.SpawnSteps("free", &parker{at: at})
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), `proc "free" parks inside its own step`) {
			t.Errorf("park in step %d: Run returned %v, want the park-in-step panic", at, err)
		}
	}
	k := New()
	free := k.SpawnSteps("free", &sleeper{left: 5})
	k.Spawn("other", func(p *Proc) { free.Sleep(1) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), `proc "free" has no goroutine to park`) {
		t.Errorf("Run returned %v, want the no-goroutine panic", err)
	}
}

// goroutineIDs is the set of the process's goroutines, by ID, as
// runtime.Stack lists them ("goroutine 7 [running]:" heads each).
func goroutineIDs() map[uint64]bool {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[uint64]bool{}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			if id, err := strconv.ParseUint(string(rest[:bytes.IndexByte(rest, ' ')]), 10, 64); err == nil {
				ids[id] = true
			}
		}
	}
	return ids
}

// TestNoCoroutineOutlivesRun: a Spawn proc's coroutine ends with the
// proc, whether it returns, is killed while parked, is killed before its
// first resume, or panics. Every goroutine alive after Run was alive
// before it; one that exits meanwhile, an earlier test's, does not count.
func TestNoCoroutineOutlivesRun(t *testing.T) {
	before := goroutineIDs()
	k := New()
	never := k.NewCompletion()
	var started []uint64
	k.Spawn("returns", func(p *Proc) { p.Sleep(5) })
	parked := k.Spawn("killed parked", func(p *Proc) { p.Wait(never) })
	early := k.Spawn("killed early", func(p *Proc) { t.Error("a proc killed before its first resume ran") })
	early.Kill()
	k.Spawn("panics", func(p *Proc) {
		p.Sleep(20)
		panic("boom")
	})
	k.At(1, func() {
		for id := range goroutineIDs() {
			if !before[id] {
				started = append(started, id)
			}
		}
	})
	k.At(10, func() { parked.Kill() })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "panics" panicked at 20ns: boom`) {
		t.Fatalf("Run returned %v, want the panic", err)
	}
	if len(started) < 3 {
		t.Fatalf("%d goroutines started by 1ns, want the three live procs' coroutines", len(started))
	}
	for id := range goroutineIDs() {
		if !before[id] {
			t.Errorf("goroutine %d started during the run and outlived it", id)
		}
	}
}

func TestKillRunsDefers(t *testing.T) {
	k := New()
	cleaned := false
	var p *Proc
	p = k.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(1000)
	})
	k.At(10, func() { p.Kill() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("kill skipped the proc's defers")
	}
}

// TestRunStepsZeroAllocSteadyState: TestSimKernelZeroAllocSteadyState's
// stepping proc, its steps run on its coroutine, each resume a switch
// into it (RunSteps), allocates nothing either.
func TestRunStepsZeroAllocSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := New()
	s := &allocStepper{c: k.GetCompletion(), warm: 64, measured: 1024}
	k.Spawn("stepper", func(p *Proc) { p.RunSteps(s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n, r := s.after.Mallocs-s.before.Mallocs, k.Resumes(); n != 0 || r.Switches < uint64(s.measured) {
		t.Fatalf("a stepping proc on a coroutine allocates %d objects over %d steps (%+v); want 0", n, s.measured, r)
	}
}
