package sim

import (
	"strings"
	"testing"
)

// liveWaiters counts the waiters c holds whose procs still wait on it.
func liveWaiters(c *Completion) int {
	n := 0
	for _, w := range c.w0[:c.n] {
		if w.live() {
			n++
		}
	}
	if s := c.more; s != nil {
		for _, w := range s.waiters {
			if w.live() {
				n++
			}
		}
	}
	return n
}

// countResumeIfs has k count the evResumeIf events it pops.
func countResumeIfs(k *Kernel) *int {
	n := new(int)
	k.tracePop = func(ev event) {
		if ev.kind == evResumeIf {
			*n++
		}
	}
	return n
}

// TestStaleWaiterSchedulesNothing: a completion that fires after its
// waiter has left the wait — timed out and moved on, or killed — gives
// it no event, so nothing dissolves at a pop either.
func TestStaleWaiterSchedulesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []waitOp
		kill Time // 0: none
	}{
		{"timed out", []waitOp{{kind: opTimeout, d: 10}, {kind: opSleep, d: 20}}, 0},
		{"killed", []waitOp{{kind: opWait}}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			c := k.NewCompletion()
			for i := range tc.ops {
				tc.ops[i].c = c
			}
			p := k.SpawnSteps("p", &scriptStepper{ops: tc.ops})
			if tc.kill > 0 {
				k.At(tc.kill, p.Kill)
			}
			k.At(20, c.Fire)
			resumeIfs := countResumeIfs(k)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if *resumeIfs != 0 || k.Resumes().StaleWakes != 0 {
				t.Errorf("the fire scheduled %d resumes, %d dissolved; want none", *resumeIfs, k.Resumes().StaleWakes)
			}
		})
	}
}

// TestSlicedWaitHoldsOneWaiter: a wait sliced by a deadline that re-arms
// on the same completion after each expiry holds one live waiter on it,
// and the stale ones of earlier slices are dropped before they would
// spill: it never spills, and the fire wakes the proc once.
func TestSlicedWaitHoldsOneWaiter(t *testing.T) {
	const slices = 8
	k := New()
	c := k.NewCompletion()
	arms, wokeAt := 0, Time(-1)
	k.SpawnSteps("p", stepFunc(func(p *Proc) bool {
		if arms > 0 && c.Fired() {
			wokeAt = p.Now()
			return true
		}
		arms++
		return p.ArmWaitTimeout(c, 10)
	}))
	for i := Time(0); i <= slices; i++ {
		k.At(i*10+5, func() {
			if live := liveWaiters(c); live != 1 || c.more != nil {
				t.Errorf("after %d re-arms the completion holds %d live waiters and spill %v, want 1 and none", arms-1, live, c.more)
			}
		})
	}
	k.At(slices*10+5, c.Fire)
	resumeIfs := countResumeIfs(k)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if arms != slices+1 || wokeAt != slices*10+5 {
		t.Errorf("armed %d times, woken at %v; want %d and %v", arms, wokeAt, slices+1, slices*10+5)
	}
	if *resumeIfs != 1 {
		t.Errorf("the fire scheduled %d resumes, want 1", *resumeIfs)
	}
}

// TestWaitersWakeInArmingOrder: the stale waiters a re-arm leaves are
// dropped in place, and the live ones keep the order they armed in —
// what the fire woke when it scheduled every waiter and the stale ones
// dissolved. p arms with a deadline, q arms, p's deadline passes and it
// re-arms: the fire wakes q, then p, and p's re-arm made no spill. Behind
// two waiters that fill the inline pair, the same happens among spilled
// ones.
func TestWaitersWakeInArmingOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before int // waiters that arm first and stay
		want   string
	}{
		{"inline", 0, "q p"},
		{"spilled", 2, "w0 w1 q p"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			c := k.NewCompletion()
			var order []string
			woke := func(name string) func() { return func() { order = append(order, name) } }
			for i := range tc.before {
				name := "w" + string(rune('0'+i))
				k.SpawnSteps(name, &scriptStepper{ops: []waitOp{{kind: opWait, c: c, then: woke(name)}}})
			}
			k.SpawnSteps("p", &scriptStepper{ops: []waitOp{
				{kind: opTimeout, c: c, d: 5},
				{kind: opWait, c: c, then: woke("p")},
			}})
			k.SpawnSteps("q", &scriptStepper{ops: []waitOp{{kind: opWait, c: c, then: woke("q")}}})
			k.At(10, func() {
				if tc.before == 0 && c.more != nil {
					t.Error("p's re-arm spilled instead of dropping its stale waiter")
				}
				c.Fire()
			})
			resumeIfs := countResumeIfs(k)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, " "); got != tc.want {
				t.Errorf("woke %q, want %q", got, tc.want)
			}
			if want := tc.before + 2; *resumeIfs != want || k.Resumes().StaleWakes != 0 {
				t.Errorf("the fire scheduled %d resumes and %d dissolved, want %d and none", *resumeIfs, k.Resumes().StaleWakes, want)
			}
		})
	}
}
