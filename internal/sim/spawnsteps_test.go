package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

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

// TestSpawnStepsPanicFailsRun: a step's panic — in the proc's first
// step or after some sleeps — fails the run in the proc's name, with the
// step's stack, finishes the proc, and takes nobody else down.
func TestSpawnStepsPanicFailsRun(t *testing.T) {
	for _, tc := range []struct {
		at   int
		want string
	}{
		{3, `proc "free" panicked at 4ns: boom at step 3`},
		{1, `proc "free" panicked at 0ns: boom at step 1`},
	} {
		k := New()
		bystander := k.SpawnSteps("bystander", &scriptStepper{ops: []waitOp{{kind: opSleep, d: 1000}}})
		free := k.SpawnSteps("free", &panicker{at: tc.at})
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Run returned %v, want the proc's panic", err)
		}
		if !strings.Contains(err.Error(), "panicker).Step\n") || !strings.Contains(err.Error(), "spawnsteps_test.go:") {
			t.Errorf("the failure lost the step's stack:\n%v", err)
		}
		if !free.Finished() || bystander.Finished() {
			t.Errorf("finished: panicking proc %v, bystander %v; want true, false", free.Finished(), bystander.Finished())
		}
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
