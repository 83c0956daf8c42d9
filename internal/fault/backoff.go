package fault

import "scaffe/internal/sim"

// Backoff is the repository's single capped-exponential deadline
// ladder. Both consumers of deadline retries — the MPI layer's
// deadline-sliced waits (PollWait) and the join desk's admission retries
// (PollAdmission) — step the same ladder, so detection latency and
// admission latency are governed by one tested policy instead of two
// drifting copies.
//
// The ladder is jitterless on purpose: randomized jitter would break
// the simulator's bit-for-bit determinism, and the discrete-event
// kernel has no thundering herd to spread out. Step(a) is
// Quantum<<min(a, MaxShift), so transient slowness is ridden out with
// geometrically growing patience that plateaus at Ceiling().
type Backoff struct {
	// Quantum is the base deadline of attempt 0.
	Quantum sim.Duration
	// MaxShift caps the exponent: no deadline exceeds Quantum<<MaxShift.
	MaxShift int
}

// Step returns the deadline for the given retry attempt (attempt 0 is
// the first wait). Negative attempts clamp to 0. The ladder of a
// sim.Never quantum is sim.Never at every attempt.
func (b Backoff) Step(attempt int) sim.Duration {
	if b.Quantum == sim.Never {
		return sim.Never
	}
	if attempt < 0 {
		attempt = 0
	}
	if attempt > b.MaxShift {
		attempt = b.MaxShift
	}
	return b.Quantum << attempt
}

// Ceiling returns the plateau deadline, Quantum<<MaxShift — the
// longest single wait the ladder ever issues, and the cool-down the
// join desk sleeps after an exhausted retry budget.
func (b Backoff) Ceiling() sim.Duration { return b.Step(b.MaxShift) }
