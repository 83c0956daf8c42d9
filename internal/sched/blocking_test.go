package sched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// These are the tests of the blocking forms themselves: Graph.Execute,
// and the park a blocking call makes inside a lane's step, each against
// the steps every run's graphs take instead. The forms and this file go
// together.

// TestTimedNodeMatchesBlockingAction: a node added with AddTimed is the
// blocking code "work; Sleep(d)" — here a rank's main proc and a
// helper thread of its own, joined through a completion — in everything
// but who waits: same order, same spans, same end time.
func TestTimedNodeMatchesBlockingAction(t *testing.T) {
	const layers = 20
	phases := []string{"forward", "backward"} // lane 0, then the helper
	dur := func(r *mpi.Rank, l, lane int) sim.Duration { return sim.Duration(3*l + lane + r.ID + 1) }
	run := func(timed bool) ([]spanRec, sim.Time) {
		w := newWorld(2)
		tracers := make([]recTracer, 2)
		_, err := w.Run(func(r *mpi.Rank) {
			tr := &tracers[r.ID]
			if !timed {
				joined := w.K.NewCompletion()
				layer := func(p *sim.Proc, l, lane int) {
					start := p.Now()
					p.Sleep(dur(r, l, lane))
					tr.NodeSpan(lane, ComputeForward, phases[lane], fmt.Sprint(phases[lane], l), false, start, p.Now())
				}
				w.K.Spawn(fmt.Sprintf("rank%d.helper", r.ID), func(p *sim.Proc) {
					for l := 0; l < layers; l++ {
						layer(p, l, 1)
					}
					joined.Fire()
				})
				for l := 0; l < layers; l++ {
					layer(r.Proc, l, 0)
				}
				if start := r.Now(); !joined.Fired() {
					r.Proc.Wait(joined)
					tr.NodeSpan(0, Generic, "backward", "join", true, start, r.Now())
				}
				return
			}
			g := New(r)
			g.Lane("helper")
			var last *Node
			for l := 0; l < layers; l++ {
				for lane, phase := range phases {
					last = g.Plan().AddTimed(lane, ComputeForward, phase, fmt.Sprint(phase, l), func(x *Ctx) sim.Time {
						return x.P.Now() + dur(x.R, l, lane)
					})
				}
			}
			g.Add(0, Generic, "", "join", nil).After(last).WaitingIn("backward")
			g.Execute(tr, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return append(tracers[0].spans, tracers[1].spans...), w.K.Now()
	}
	wantSpans, wantEnd := run(false)
	gotSpans, gotEnd := run(true)
	if len(wantSpans) < 4*layers {
		t.Fatalf("blocking graphs emitted %d spans", len(wantSpans))
	}
	if gotEnd != wantEnd || !reflect.DeepEqual(gotSpans, wantSpans) {
		t.Errorf("timed nodes ended at %v with %d spans, blocking actions at %v with %d; first difference at span %d",
			gotEnd, len(gotSpans), wantEnd, len(wantSpans), firstDiff(gotSpans, wantSpans))
	}
}

// TestParkInActionPanics: an action runs in its lane's step, so one that
// parks — a blocking receive — fails loudly with the proc's name instead
// of hanging the event loop.
func TestParkInActionPanics(t *testing.T) {
	w := newWorld(2)
	comm := w.WorldComm()
	var got any
	_, err := w.Run(func(r *mpi.Rank) {
		if r.ID == 1 {
			return // never sends
		}
		defer func() { got = recover() }()
		g := New(r)
		g.Plan().AddTimed(0, Generic, "", "first", func(x *Ctx) sim.Time { return x.P.Now() + 5 })
		g.Add(0, Generic, "", "recv", func(x *Ctx) { x.R.Recv(comm, 1, 0, gpu.NewBuffer(8)) })
		g.Execute(nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := got.(string); !strings.Contains(msg, `proc "rank0" parks inside its own step`) {
		t.Errorf("Execute ended with %v, want the park-in-step panic", got)
	}
}

// TestParkInHelperActionPanics: a helper lane's action runs in the
// helper proc's step, where a blocking receive parks the rank's main
// proc, not the helper. That fails loudly too, naming both procs,
// instead of hanging the event loop.
func TestParkInHelperActionPanics(t *testing.T) {
	w := newWorld(2)
	comm := w.WorldComm()
	_, err := w.Run(func(r *mpi.Rank) {
		if r.ID == 1 {
			return // never sends
		}
		g := New(r)
		helper := g.Plan().Lane("helper")
		g.Add(helper, Generic, "", "recv", func(x *Ctx) { x.R.Recv(comm, 1, 0, gpu.NewBuffer(8)) })
		g.Execute(nil, 0)
	})
	if want := `proc "rank0" parks inside a step of proc "rank0.helper"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("run ended with %v, want an error containing %s", err, want)
	}
}

func firstDiff(a, b []spanRec) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
