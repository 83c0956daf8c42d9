package sim

import "testing"

func TestWaitTimeoutExpires(t *testing.T) {
	k := New()
	var log []outcome
	k.SpawnSteps("waiter", &scriptStepper{ops: []waitOp{{kind: opTimeout, c: k.NewCompletion(), d: 100}}, log: &log})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if log[0].fired {
		t.Error("WaitTimeout reported fired on a completion nobody fired")
	}
	if at := log[0].at; at != 100 {
		t.Errorf("woke at %v, want 100", at)
	}
}

func TestWaitTimeoutCompletes(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	var log []outcome
	k.SpawnSteps("waiter", &scriptStepper{ops: []waitOp{{kind: opTimeout, c: c, d: 100}}, log: &log})
	k.At(40, func() { c.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !log[0].fired {
		t.Error("WaitTimeout missed the completion")
	}
	if at := log[0].at; at != 40 {
		t.Errorf("woke at %v, want 40", at)
	}
	// The stale timeout event at t=100 must not disturb anything.
	if k.Now() != 100 {
		t.Errorf("final time = %v, want 100 (timeout event drains)", k.Now())
	}
}

func TestWaitTimeoutRepeatedThenFire(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	attempts, armed := 0, false
	k.SpawnSteps("waiter", stepFunc(func(p *Proc) bool {
		if armed {
			if c.Fired() {
				return true
			}
			attempts++
		}
		armed = true
		return p.ArmWaitTimeout(c, 10)
	}))
	k.At(35, func() { c.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3 (timeouts at 10, 20, 30)", attempts)
	}
}

func TestKillSleepingProc(t *testing.T) {
	k := New()
	reached := false
	p := k.SpawnSteps("victim", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 1000, then: func() { reached = true }},
	}})
	k.At(10, func() { p.Kill() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("killed proc ran past its kill point")
	}
	if !p.Finished() {
		t.Error("killed proc not marked finished")
	}
	if k.Now() != 1000 {
		t.Errorf("final time = %v (stale sleep event drains at 1000)", k.Now())
	}
}

func TestKillWaitingProcAvoidsDeadlock(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	p := k.SpawnSteps("victim", &scriptStepper{ops: []waitOp{
		{kind: opWait, c: c}, // nobody will fire this
	}})
	k.At(5, func() { p.Kill() })
	if err := k.Run(); err != nil {
		t.Fatalf("kill of a blocked proc should resolve the deadlock: %v", err)
	}
}
