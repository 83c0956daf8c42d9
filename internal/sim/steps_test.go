package sim

import "fmt"

// A wait script is a fixed list of waits one proc makes, run as its
// Stepper (scriptStepper): each op arms one wait with ArmUntil or
// ArmWaitTimeout, and its outcome is logged when the proc gets control
// back.
type waitKind int

const (
	opWait waitKind = iota
	opUntil
	opTimeout
	opSleep
)

type waitOp struct {
	kind waitKind
	c    *Completion
	t    Time     // opUntil: absolute
	d    Duration // opTimeout; opSleep: from when the op starts
	then func()   // runs when the wait is over, before the next is armed
}

// outcome is what the script observes after each wait: when it got
// control back and whether the completion had fired.
type outcome struct {
	at    Time
	fired bool
}

// scriptStepper runs ops as a proc's steps, logging each outcome to log
// if it is set.
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
			s.over(p, op.kind == opWait || op.kind == opTimeout && op.c.Fired())
			s.armed = false
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
		case opSleep:
			p.ArmUntil(p.Now() + op.d)
		}
		if fired {
			s.over(p, true)
			continue
		}
		s.armed = true
		return false
	}
}

// over ends the current op: it logs the outcome, runs the op's then and
// moves on.
func (s *scriptStepper) over(p *Proc, fired bool) {
	if s.log != nil {
		*s.log = append(*s.log, outcome{p.Now(), fired})
	}
	if then := s.ops[s.i].then; then != nil {
		then()
	}
	s.i++
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

// panicker steps through short sleeps and panics in step number at.
type panicker struct{ n, at int }

func (s *panicker) Step(p *Proc) bool {
	if s.n++; s.n == s.at {
		panic(fmt.Sprint("boom at step ", s.n))
	}
	p.ArmUntil(p.Now() + 2)
	return false
}
