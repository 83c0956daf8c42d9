package mpi

import (
	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// rankScript is a rank's work in a test as one sim.Stepper, the form
// every rank of a run takes: a list of ops run in order on the rank's
// main proc. An op reports whether it is over; one that is not has armed
// exactly one wait of the proc's (a request's, a barrier's, a sleep), and
// the next step calls it again. Posting and awaiting go through
// PollRequest and PollBarrier, so a script makes the kernel calls, in
// the order, that a training run's plan nodes make.
type rankScript struct {
	r   *Rank
	ops []scriptOp
	i   int
	w   Waiter // the current op's wait; zeroed between ops
}

// scriptOp is one op of a rankScript. An op keeps whatever state it
// needs between its calls in its own closure, so each use makes a fresh
// one.
type scriptOp func(s *rankScript) (over bool)

// script returns r's work as the ops, for World.RunSteps.
func script(r *Rank, ops ...scriptOp) sim.Stepper { return &rankScript{r: r, ops: ops} }

func (s *rankScript) Step(*sim.Proc) bool {
	for ; s.i < len(s.ops); s.i++ {
		if !s.ops[s.i](s) {
			return false
		}
		s.w = Waiter{}
	}
	return true
}

// do runs fn and is over.
func do(fn func()) scriptOp {
	return func(*rankScript) bool { fn(); return true }
}

// sleep is over d after it starts; a d ≤ 0 lets the rest of the
// current instant run first.
func sleep(d sim.Duration) scriptOp {
	armed := false
	return func(s *rankScript) bool {
		if armed {
			return true
		}
		armed = true
		s.r.Proc.ArmUntil(s.r.Now() + d)
		return false
	}
}

// await is over when the request *req holds, posted by an earlier op,
// completes; the request is released then.
func await(req **Request) scriptOp {
	return func(s *rankScript) bool { return s.r.PollRequest(&s.w, *req) }
}

// awaitAll awaits each request of *reqs in turn.
func awaitAll(reqs *[]*Request) scriptOp {
	next := 0
	return func(s *rankScript) bool {
		for ; next < len(*reqs); next++ {
			if !s.r.PollRequest(&s.w, (*reqs)[next]) {
				return false
			}
			s.w = Waiter{}
		}
		return true
	}
}

// awaitFire is over when c fires, a wait with no deadline.
func awaitFire(c *sim.Completion) scriptOp {
	return func(s *rankScript) bool {
		if c.Fired() {
			return true
		}
		return s.r.Proc.ArmWaitTimeout(c, sim.Never)
	}
}

// posted posts the request post makes when it starts, and is over when
// that request completes.
func posted(post func(r *Rank) *Request) scriptOp {
	var req *Request
	return func(s *rankScript) bool {
		if req == nil {
			req = post(s.r)
		}
		return s.r.PollRequest(&s.w, req)
	}
}

// send is a send posted and awaited.
func send(c *Comm, to, tag int, buf *gpu.Buffer, mode topology.TransferMode) scriptOp {
	return posted(func(r *Rank) *Request { return r.Isend(c, to, tag, buf, mode) })
}

// recv is a receive posted and awaited.
func recv(c *Comm, from, tag int, buf *gpu.Buffer) scriptOp {
	return posted(func(r *Rank) *Request { return r.Irecv(c, from, tag, buf) })
}

// bcast is a broadcast posted and awaited.
func bcast(c *Comm, root int, buf *gpu.Buffer, mode topology.TransferMode) scriptOp {
	return posted(func(r *Rank) *Request { return r.Ibcast(c, root, buf, mode) })
}

// barrier is a barrier of c, started and awaited.
func barrier(c *Comm) scriptOp {
	started := false
	return func(s *rankScript) bool {
		if !started {
			started = true
			c.StartBarrier(s.r)
		}
		return s.r.PollBarrier()
	}
}

// revocable runs op, and is over early if op unwinds with Revoked, which
// it records in *revoked.
func revocable(op scriptOp, revoked *bool) scriptOp {
	return func(s *rankScript) (over bool) {
		defer func() {
			if rec := recover(); rec != nil {
				if !IsRevoked(rec) {
					panic(rec)
				}
				*revoked, over = true, true
			}
		}()
		return op(s)
	}
}
