package mpi

import (
	"fmt"
	"strings"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// A kernel hook has no proc to wait what it starts, so a request made in
// one panics at getRequest, naming the rank; a step the same instant's
// hook resumed is a proc's, and may post. A request a proc makes and
// never waits stays live, which the engine checks at the end of a run.

// isendHook is a sim.Runnable whose RunEvent posts a send.
type isendHook struct {
	r *Rank
	c *Comm
}

func (h *isendHook) RunEvent(*sim.Kernel) {
	h.r.Isend(h.c, 1, 1, gpu.NewBuffer(4), topology.ModeAuto)
}

// runHookPanic runs main on w and returns the failure it ends in: the
// kernel's error, or the panic if it escaped Run.
func runHookPanic(t *testing.T, w *World, main func(r *Rank) sim.Stepper) (msg string) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			msg = fmt.Sprint(rec)
		}
	}()
	if _, err := w.RunSteps(main); err != nil {
		return err.Error()
	}
	return ""
}

func TestRequestInRunEventPanics(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	msg := runHookPanic(t, w, func(r *Rank) sim.Stepper {
		return script(r,
			do(func() {
				if r.ID == 0 {
					w.K.AtRun(r.Now()+10, &isendHook{r, c})
				}
			}),
			sleep(20))
	})
	if want := "mpi: rank 0 made a request inside a kernel hook"; !strings.Contains(msg, want) {
		t.Fatalf("run ended in %q, want a panic containing %q", msg, want)
	}
}

func TestRequestInKernelAtPanics(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	msg := runHookPanic(t, w, func(r *Rank) sim.Stepper {
		return script(r,
			do(func() {
				if r.ID == 1 {
					w.K.At(r.Now()+10, func() { r.Irecv(c, 0, 1, gpu.NewBuffer(4)) })
				}
			}),
			sleep(20))
	})
	if want := "mpi: rank 1 made a request inside a kernel hook"; !strings.Contains(msg, want) {
		t.Fatalf("run ended in %q, want a panic containing %q", msg, want)
	}
}

// sendStep waits for a completion a hook fires, then sends: its Isend
// runs on the event loop at the hook's instant, but as rank 0's step.
type sendStep struct {
	r      *Rank
	c      *Comm
	gate   *sim.Completion
	w      Waiter
	req    *Request
	sentAt sim.Time
}

func (s *sendStep) Step(*sim.Proc) bool {
	if s.req == nil {
		if !s.r.PollWait(s.r.Proc, &s.w, s.gate) {
			return false
		}
		s.sentAt = s.r.Now()
		s.req = s.r.Isend(s.c, 1, 1, gpu.WrapData([]float32{1, 2, 3, 4}), topology.ModeAuto)
	}
	return s.r.PollRequest(&s.w, s.req)
}

func TestStepRequestAfterHookDoesNotPanic(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	s := &sendStep{c: c, gate: w.K.NewCompletion()}
	got := gpu.NewDataBuffer(4)
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			return script(r, recv(c, 0, 1, got))
		}
		s.r = r
		w.K.At(r.Now()+10, s.gate.Fire)
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.sentAt != 10 || got.Data[3] != 4 {
		t.Fatalf("step sent at %v and rank 1 received %v; want a send at 10 of 1..4", s.sentAt, got.Data)
	}
}

func TestLiveRequestsCountsUnwaited(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var live []int
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			return script(r, recv(c, 0, 1, gpu.NewBuffer(4)), recv(c, 0, 2, gpu.NewBuffer(4)))
		}
		var req *Request
		return script(r,
			do(func() {
				req = r.Isend(c, 1, 1, gpu.NewBuffer(4), topology.ModeAuto)
				r.Isend(c, 1, 2, gpu.NewBuffer(4), topology.ModeAuto) // never waited
				live = append(live, r.LiveRequests())
			}),
			await(&req),
			do(func() {
				live = append(live, r.LiveRequests())
				w.EpochComm([]int{0, 1}) // a new epoch abandons what is in flight
				live = append(live, r.LiveRequests())
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 0}; fmt.Sprint(live) != fmt.Sprint(want) || w.Ranks[1].LiveRequests() != 0 {
		t.Fatalf("rank 0 live requests %v, want %v; rank 1 %d, want 0", live, want, w.Ranks[1].LiveRequests())
	}
}

// TestReapReleasesCompleted: Reap on a completed request releases it, as
// a wait would: the rank's live count drops, the next request reuses its
// record, and a run whose only release of a send was a reap ends with
// nothing live.
func TestReapReleasesCompleted(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var live []int
	reaped, reused := false, false
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			return script(r, recv(c, 0, 1, gpu.NewBuffer(4)), send(c, 0, 2, gpu.NewBuffer(4), topology.ModeAuto))
		}
		var rreq *Request
		return script(r,
			do(func() {
				req := r.Isend(c, 1, 1, gpu.NewBuffer(4), topology.ModeAuto) // eager: complete at once
				live = append(live, r.LiveRequests())
				reaped = r.Reap(req)
				live = append(live, r.LiveRequests())
				rreq = r.Irecv(c, 1, 2, gpu.NewBuffer(4))
				reused = rreq == req
			}),
			await(&rreq))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reaped || fmt.Sprint(live) != "[1 0]" || !reused {
		t.Fatalf("reap of a completed send reported %v, live requests %v (want [1 0]), record reused %v", reaped, live, reused)
	}
	for _, r := range w.Ranks {
		if n := r.LiveRequests(); n != 0 {
			t.Errorf("rank %d ended with %d live requests", r.ID, n)
		}
	}
}

// TestReapLeavesPendingAlone: Reap on a request still in flight reports
// false, keeps it live, and arms and schedules nothing: a run that reaps a
// pending rendezvous send before waiting it ends at the same time with the
// same resumes as one that only waits it.
func TestReapLeavesPendingAlone(t *testing.T) {
	run := func(reap bool) (sim.Time, sim.Resumes) {
		w := newWorld(t, 2, 1, 2)
		c := w.WorldComm()
		end, err := w.RunSteps(func(r *Rank) sim.Stepper {
			if r.ID == 1 {
				return script(r, sleep(100), recv(c, 0, 1, gpu.NewBuffer(2*EagerLimit)))
			}
			var req *Request
			return script(r,
				do(func() {
					req = r.Isend(c, 1, 1, gpu.NewBuffer(2*EagerLimit), topology.ModeAuto)
					if reap {
						if r.Reap(req) || req.done.Fired() || r.LiveRequests() != 1 {
							t.Errorf("reap of a pending send released it: fired %v, %d live requests", req.done.Fired(), r.LiveRequests())
						}
					}
				}),
				await(&req))
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, w.K.Resumes()
	}
	waitEnd, waitResumes := run(false)
	reapEnd, reapResumes := run(true)
	if reapEnd != waitEnd || reapResumes != waitResumes {
		t.Fatalf("with a reap the run ended at %v with resumes %+v; without, at %v with %+v", reapEnd, reapResumes, waitEnd, waitResumes)
	}
}
