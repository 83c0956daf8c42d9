package fault

import (
	"testing"

	"scaffe/internal/sim"
)

// TestBackoffSteps pins the ladder's exact deterministic steps: no
// jitter, exponential growth, hard plateau.
func TestBackoffSteps(t *testing.T) {
	b := Backoff{Quantum: 10 * sim.Millisecond, MaxShift: 4}
	want := []sim.Duration{
		10 * sim.Millisecond,
		20 * sim.Millisecond,
		40 * sim.Millisecond,
		80 * sim.Millisecond,
		160 * sim.Millisecond,
		160 * sim.Millisecond, // plateau
		160 * sim.Millisecond,
	}
	for a, w := range want {
		if got := b.Step(a); got != w {
			t.Errorf("Step(%d) = %v, want %v", a, got, w)
		}
	}
	if got := b.Step(-3); got != want[0] {
		t.Errorf("Step(-3) = %v, want %v", got, want[0])
	}
	if got := b.Ceiling(); got != 160*sim.Millisecond {
		t.Errorf("Ceiling() = %v, want 160ms", got)
	}
}

// TestPlaneTimeoutUsesBackoff pins the plane's deadline ladder to the
// shared helper: mpi's waitFT and the join desk call pl.Timeout, so
// this is the single policy both step.
func TestPlaneTimeoutUsesBackoff(t *testing.T) {
	k := sim.New()
	pl := NewPlane(k, 4, 0)
	b := Backoff{Quantum: DefaultTimeout, MaxShift: maxBackoffShift}
	for a := 0; a < 8; a++ {
		if pl.Timeout(a) != b.Step(a) {
			t.Errorf("Timeout(%d) = %v, Backoff.Step = %v", a, pl.Timeout(a), b.Step(a))
		}
	}
}
