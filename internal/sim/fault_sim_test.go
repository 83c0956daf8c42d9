package sim

import "testing"

func TestWaitTimeoutExpires(t *testing.T) {
	k := New()
	var fired bool
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		c := k.NewCompletion()
		fired = waitTimeout(p, c, 100)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("WaitTimeout reported fired on a completion nobody fired")
	}
	if at != 100 {
		t.Errorf("woke at %v, want 100", at)
	}
}

func TestWaitTimeoutCompletes(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	var fired bool
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		fired = waitTimeout(p, c, 100)
		at = p.Now()
	})
	k.At(40, func() { c.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("WaitTimeout missed the completion")
	}
	if at != 40 {
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
	attempts := 0
	k.Spawn("waiter", func(p *Proc) {
		for !waitTimeout(p, c, 10) {
			attempts++
		}
	})
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
	var p *Proc
	p = k.Spawn("victim", func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
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
	var p *Proc
	p = k.Spawn("victim", func(p *Proc) {
		p.Wait(c) // nobody will fire this
	})
	k.At(5, func() { p.Kill() })
	if err := k.Run(); err != nil {
		t.Fatalf("kill of a blocked proc should resolve the deadlock: %v", err)
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
