package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

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

// TestSpawnStepsMakesNoGoroutine: procs with no goroutine run to their end
// with no goroutine switch and no goroutine started.
func TestSpawnStepsMakesNoGoroutine(t *testing.T) {
	k := New()
	before := runtime.NumGoroutine()
	seen := -1
	procs := make([]*Proc, 50)
	for i := range procs {
		procs[i] = k.SpawnSteps(fmt.Sprint("p", i), &sleeper{left: 20})
	}
	k.At(7, func() { seen = runtime.NumGoroutine() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen > before { // fewer is an earlier test's goroutine exiting
		t.Errorf("%d goroutines during the run, %d before it", seen, before)
	}
	if r := k.Resumes(); r.Switches != 0 || r.Steps != 50*20 {
		t.Errorf("resumes %+v, want no switch and a step per sleep", r)
	}
	for _, p := range procs {
		if !p.Finished() {
			t.Fatalf("proc %s did not finish", p.Name())
		}
	}
	if len(k.procs) != 0 {
		t.Errorf("%d finished procs left in the table", len(k.procs))
	}
}

// TestSpawnStepsPanicFailsRun: a step's panic fails the run in the proc's
// name, with the step's stack, finishes the proc, and takes nobody else
// down.
func TestSpawnStepsPanicFailsRun(t *testing.T) {
	k := New()
	bystander := k.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	free := k.SpawnSteps("free", &panicker{at: 3})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "free" panicked at 4ns: boom at step 3`) {
		t.Fatalf("Run returned %v, want the proc's panic", err)
	}
	if !strings.Contains(err.Error(), "panicker).Step\n") || !strings.Contains(err.Error(), "spawnsteps_test.go:") {
		t.Errorf("the failure lost the step's stack:\n%v", err)
	}
	if !free.Finished() || bystander.Finished() {
		t.Errorf("finished: panicking proc %v, bystander %v; want true, false", free.Finished(), bystander.Finished())
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

// idler steps through its sleeps, then idles; Wake gives it more.
type idler struct{ left, steps int }

func (s *idler) Step(p *Proc) bool {
	s.steps++
	if s.left == 0 {
		p.ArmIdle()
		return false
	}
	s.left--
	p.ArmUntil(p.Now() + 1)
	return false
}

// TestSpawnStepsIdleRetired: a proc with no goroutine that ends idle is
// woken by Wake and, once the queue drains, retired like any idle proc.
func TestSpawnStepsIdleRetired(t *testing.T) {
	k := New()
	s := &idler{left: 3}
	free := k.SpawnSteps("free", s)
	var woke bool
	k.At(10, func() {
		s.left = 2
		woke = free.Wake()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke || !free.Finished() {
		t.Errorf("woken %v, finished %v; want both", woke, free.Finished())
	}
	if s.steps != 4+3 || k.Now() != 12 {
		t.Errorf("%d steps, run ended at %v; want 7 steps, ending at 12ns", s.steps, k.Now())
	}
	if r := k.Resumes(); r.Switches != 0 {
		t.Errorf("resumes %+v, want no switch", r)
	}
}

// TestNamesShareOneString: a family of proc names is cut from one
// string, so naming 1,000 procs costs two allocations, and each name
// reads as if formatted alone.
func TestNamesShareOneString(t *testing.T) {
	names := Names("rank", 1000, ".helper")
	for _, i := range []int{0, 9, 10, 99, 100, 999} {
		if want := fmt.Sprintf("rank%d.helper", i); names[i] != want {
			t.Errorf("Names(...)[%d] = %q, want %q", i, names[i], want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { Names("rank", 1000, "") }); n != 2 {
		t.Errorf("Names made %.0f allocations for 1,000 names, want 2", n)
	}
}
