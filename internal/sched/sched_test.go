package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

type spanRec struct {
	lane       int
	kind       Kind
	phase      string
	label      string
	start, end sim.Time
}

type recTracer struct{ spans []spanRec }

func (t *recTracer) NodeSpan(lane int, kind Kind, phase, label string, start, end sim.Time) {
	t.spans = append(t.spans, spanRec{lane, kind, phase, label, start, end})
}

func (t *recTracer) find(label string) *spanRec {
	for i := range t.spans {
		if t.spans[i].label == label {
			return &t.spans[i]
		}
	}
	return nil
}

func newWorld(ranks int) *mpi.World {
	k := sim.New()
	cl := topology.New(k, "t", 1, 16, topology.DefaultParams())
	return mpi.NewWorld(cl, ranks)
}

func TestLaneZeroRunsInInsertionOrder(t *testing.T) {
	w := newWorld(1)
	tr := &recTracer{}
	var order []string
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		g.Plan().AddTimed(0, ComputeForward, "forward", "a", func(x *Ctx) sim.Time {
			order = append(order, "a")
			return x.P.Now() + 10
		})
		g.Add(0, Generic, "", "book", func(x *Ctx) { order = append(order, "book") })
		g.Plan().AddTimed(0, ComputeBackward, "backward", "b", func(x *Ctx) sim.Time {
			order = append(order, "b")
			return x.P.Now() + 5
		})
		g.Execute(tr, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "book" || order[2] != "b" {
		t.Fatalf("order = %v", order)
	}
	if w.K.Now() != 15 {
		t.Errorf("final time = %v, want 15", w.K.Now())
	}
	// Untraced and zero-length nodes emit nothing; timed nodes do.
	if len(tr.spans) != 2 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	a := tr.find("a")
	if a == nil || a.phase != "forward" || a.kind != ComputeForward || a.start != 0 || a.end != 10 {
		t.Errorf("span a = %+v", a)
	}
	b := tr.find("b")
	if b == nil || b.start != 10 || b.end != 15 {
		t.Errorf("span b = %+v", b)
	}
}

// TestTimedNodeMatchesBlockingAction: a node added with AddTimed is the
// blocking code "work; WaitUntil(end)" — here a rank's main proc and a
// helper thread of its own, joined through a completion — in everything
// but who waits: same order, same spans, same end time. Its waits are
// steps, not goroutine switches.
func TestTimedNodeMatchesBlockingAction(t *testing.T) {
	const layers = 20
	phases := []string{"forward", "backward"} // lane 0, then the helper
	dur := func(r *mpi.Rank, l, lane int) sim.Duration { return sim.Duration(3*l + lane + r.ID + 1) }
	run := func(timed bool) ([]spanRec, sim.Time, sim.Resumes) {
		w := newWorld(2)
		tracers := make([]recTracer, 2)
		_, err := w.Run(func(r *mpi.Rank) {
			tr := &tracers[r.ID]
			if !timed {
				joined := w.K.NewCompletion()
				layer := func(p *sim.Proc, l, lane int) {
					start := p.Now()
					p.WaitUntil(start + dur(r, l, lane))
					tr.NodeSpan(lane, ComputeForward, phases[lane], fmt.Sprint(phases[lane], l), start, p.Now())
				}
				r.SpawnThread("helper", func(p *sim.Proc) {
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
					tr.NodeSpan(0, Generic, "backward", "join/wait", start, r.Now())
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
		return append(tracers[0].spans, tracers[1].spans...), w.K.Now(), w.K.Resumes()
	}
	wantSpans, wantEnd, blocking := run(false)
	gotSpans, gotEnd, stepped := run(true)
	if len(wantSpans) < 4*layers {
		t.Fatalf("blocking graphs emitted %d spans", len(wantSpans))
	}
	if gotEnd != wantEnd || !reflect.DeepEqual(gotSpans, wantSpans) {
		t.Errorf("timed nodes ended at %v with %d spans, blocking actions at %v with %d; first difference at span %d",
			gotEnd, len(gotSpans), wantEnd, len(wantSpans), firstDiff(gotSpans, wantSpans))
	}
	if blocking.Switches < 4*layers || stepped.Switches > 12 {
		t.Errorf("switches: blocking %+v, timed %+v; want one per layer and lane against a handful", blocking, stepped)
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

func TestCrossLaneDependencyAndWaitPhase(t *testing.T) {
	w := newWorld(1)
	tr := &recTracer{}
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		helper := g.Lane("helper")
		begin := g.Add(0, Generic, "", "begin", nil)
		hw := g.Plan().AddTimed(helper, ComputeBackward, "backward", "bwd", func(x *Ctx) sim.Time {
			return x.P.Now() + 40
		}).After(begin)
		g.Plan().AddTimed(0, Reduce, "aggregation", "reduce", func(x *Ctx) sim.Time {
			return x.P.Now() + 7
		}).After(hw).WaitingIn("backward")
		g.Execute(tr, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.K.Now() != 47 {
		t.Errorf("final time = %v, want 47", w.K.Now())
	}
	wait := tr.find("reduce/wait")
	if wait == nil || wait.phase != "backward" || wait.lane != 0 || wait.start != 0 || wait.end != 40 {
		t.Errorf("wait span = %+v", wait)
	}
	red := tr.find("reduce")
	if red == nil || red.phase != "aggregation" || red.start != 40 || red.end != 47 {
		t.Errorf("reduce span = %+v", red)
	}
	bwd := tr.find("bwd")
	if bwd == nil || bwd.lane != 1 || bwd.end != 40 {
		t.Errorf("helper span = %+v", bwd)
	}
}

func TestExecuteJoinsUnreferencedHelperLane(t *testing.T) {
	w := newWorld(1)
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		helper := g.Lane("helper")
		g.Plan().AddTimed(helper, Generic, "", "slow", func(x *Ctx) sim.Time { return x.P.Now() + 100 })
		g.Plan().AddTimed(0, Generic, "", "fast", func(x *Ctx) sim.Time { return x.P.Now() + 1 })
		g.Execute(nil, 0)
		// Execute must not return before the helper lane finishes.
		if r.Now() != 100 {
			t.Errorf("Execute returned at %v, want 100", r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestGateWaitsTransfer(t *testing.T) {
	w := newWorld(2)
	tr := &recTracer{}
	comm := w.WorldComm()
	// Rendezvous-sized message so the send completes only when the
	// receiver shows up.
	const bytes = 1 << 20
	_, err := w.Run(func(r *mpi.Rank) {
		if r.ID == 1 {
			r.Sleep(1000)
			r.Recv(comm, 0, 9, gpu.NewBuffer(bytes))
			return
		}
		g := New(r)
		var reqs []*mpi.Request
		g.Add(0, PostBcast, "", "post", func(x *Ctx) {
			reqs = append(reqs[:0], nil, x.R.Isend(comm, 1, 9, gpu.NewBuffer(bytes), topology.ModeAuto))
		})
		g.Add(0, DrainSends, "propagation", "drain", nil).Awaiting(func(*Ctx) []*mpi.Request { return reqs })
		g.Execute(tr, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	drain := tr.find("drain/wait")
	if drain == nil || drain.phase != "propagation" {
		t.Fatalf("drain span = %+v (spans %+v)", drain, tr.spans)
	}
	if drain.start != 0 || drain.end < 1000 {
		t.Errorf("drain waited [%v,%v]; want start 0, end past the receiver's arrival", drain.start, drain.end)
	}
}

func TestForwardSameLaneDependencyPanics(t *testing.T) {
	w := newWorld(1)
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		a := g.Add(0, Generic, "", "a", nil)
		b := g.Add(0, Generic, "", "b", nil)
		defer func() {
			if recover() == nil {
				t.Error("forward same-lane dependency should panic")
			}
		}()
		a.After(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGateOffMainLanePanics(t *testing.T) {
	w := newWorld(1)
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		helper := g.Lane("helper")
		n := g.Add(helper, Generic, "", "h", nil)
		defer func() {
			if recover() == nil {
				t.Error("a helper-lane node awaiting requests should panic")
			}
		}()
		n.Awaiting(func(*Ctx) []*mpi.Request { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Generic, DataWait, Pack, Unpack, PostBcast, WaitBcast,
		ComputeForward, ComputeBackward, Reduce, DrainSends, Update}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

// obrShape builds SC-OBR's shape on p: a ring exchange posted up front
// and awaited at the end through requests each rank keeps, backward
// layers on a helper lane, and one main-lane reduce per layer waiting for
// its layer in another phase. Every duration depends on the executing
// rank and the iteration, so a plan that leaked one rank's or one
// iteration's state into another would move a span.
func obrShape(p *Plan, comm *mpi.Comm, ranks int) {
	const layers, bytes = 3, 1 << 20
	reqs := make([][]*mpi.Request, ranks)
	p.Add(0, PostBcast, "", "post", func(x *Ctx) {
		reqs[x.R.ID] = append(reqs[x.R.ID][:0],
			x.R.Isend(comm, (x.R.ID+1)%ranks, x.It, gpu.NewBuffer(bytes), topology.ModeAuto),
			x.R.Irecv(comm, (x.R.ID+ranks-1)%ranks, x.It, gpu.NewBuffer(bytes)))
	})
	begin := p.Add(0, Generic, "", "begin", nil)
	helper := p.Lane("helper")
	bwd := make([]*Node, layers)
	for l := layers - 1; l >= 0; l-- {
		l := l
		bwd[l] = p.AddTimed(helper, ComputeBackward, "backward", fmt.Sprint("bwd:", l), func(x *Ctx) sim.Time {
			return x.P.Now() + sim.Duration(10*(l+1)+x.R.ID+x.It)*sim.Microsecond
		})
	}
	bwd[layers-1].After(begin)
	for l := layers - 1; l >= 0; l-- {
		p.AddTimed(0, Reduce, "aggregation", fmt.Sprint("reduce:", l), func(x *Ctx) sim.Time {
			return x.P.Now() + sim.Duration(2+x.R.ID)*sim.Microsecond
		}).After(bwd[l]).WaitingIn("backward")
	}
	p.Add(0, DrainSends, "propagation", "drain", nil).Awaiting(func(x *Ctx) []*mpi.Request { return reqs[x.R.ID] })
}

// runShape executes obrShape on every rank of a fresh world for iters
// iterations — through one shared plan, or through one sched.New graph
// per rank — and returns each rank's spans.
func runShape(t *testing.T, shared bool, ranks, iters int) [][]spanRec {
	t.Helper()
	k := sim.New()
	cl := topology.New(k, "t", 2, (ranks+1)/2, topology.DefaultParams())
	w := mpi.NewWorld(cl, ranks)
	comm := w.WorldComm()
	var plan *Plan
	if shared {
		plan = NewPlan()
		obrShape(plan, comm, ranks)
		plan.Seal()
	}
	tracers := make([]recTracer, ranks)
	w.Spawn(func(r *mpi.Rank) {
		var g *Graph
		if shared {
			g = plan.Bind(r)
		} else {
			g = New(r)
			obrShape(g.Plan(), comm, ranks)
		}
		for it := 0; it < iters; it++ {
			g.Execute(&tracers[r.ID], it)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	spans := make([][]spanRec, ranks)
	for i := range tracers {
		spans[i] = tracers[i].spans
	}
	return spans
}

// TestInstanceHoldsCompletionsOnlyWhereALaneWaits: a sealed plan numbers
// the nodes another lane comes After plus each helper lane's last node,
// and an instance holds a completion for those and no other.
func TestInstanceHoldsCompletionsOnlyWhereALaneWaits(t *testing.T) {
	w := newWorld(2)
	// obrShape: "begin" (waited by the helper's first node) and the three
	// backward nodes (each waited by its reduce; the last of them is also
	// the helper lane's tail) of 9 nodes in all.
	two := NewPlan()
	obrShape(two, w.WorldComm(), 2)
	two.Seal()
	nodes := len(two.lanes[0]) + len(two.lanes[1])
	_, err := w.Run(func(r *mpi.Rank) {
		g := two.Bind(r)
		g.Execute(nil, 0)
		if nodes != 9 || two.waited != 4 || len(g.done) != 4 {
			t.Errorf("two-lane plan of %d nodes: %d waited, instance holds %d completions; want 9, 4, 4", nodes, two.waited, len(g.done))
		}
		for li, lane := range two.lanes {
			for _, n := range lane {
				waited := n.label == "begin" || li == 1
				if (n.done >= 0) != waited {
					t.Errorf("node %q: completion index %d, waited by another lane: %v", n.label, n.done, waited)
				}
			}
		}

		// A helper lane nobody depends on still ends in a completion: lane 0
		// joins it.
		tail := New(r)
		helper := tail.Lane("helper")
		tail.Add(helper, Generic, "", "a", nil)
		tail.Add(helper, Generic, "", "b", nil)
		tail.Add(0, Generic, "", "c", nil)
		tail.Execute(nil, 0)
		if len(tail.done) != 1 {
			t.Errorf("unreferenced helper lane: instance holds %d completions, want 1 (its tail)", len(tail.done))
		}

		one := New(r)
		one.Add(0, Generic, "", "a", nil)
		one.Add(0, Generic, "", "b", nil).After(one.Plan().lanes[0][0])
		one.Execute(nil, 0)
		if len(one.done) != 0 {
			t.Errorf("single-lane plan: instance holds %d completions, want 0", len(one.done))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedPlanParallelRanks pins the plan/instance split: one plan
// executed by several ranks for several iterations emits exactly the
// spans of private per-rank graphs.
func TestSharedPlanParallelRanks(t *testing.T) {
	const ranks, iters = 8, 4
	want := runShape(t, false, ranks, iters)
	if len(want[0]) == 0 {
		t.Fatal("private graphs emitted no spans")
	}
	got := runShape(t, true, ranks, iters)
	for r := range want {
		if !reflect.DeepEqual(got[r], want[r]) {
			t.Errorf("rank %d: shared plan spans\n%+v\nprivate graph spans\n%+v", r, got[r], want[r])
		}
	}
}

func TestSealedPlanRejectsChanges(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		fn()
	}
	w := newWorld(1)
	_, err := w.Run(func(r *mpi.Rank) {
		p := NewPlan()
		n := p.Add(0, Generic, "", "a", nil)
		mustPanic("Bind on an open plan", func() { p.Bind(r) })
		p.Seal()
		g := p.Bind(r)
		mustPanic("Plan.Add", func() { p.Add(0, Generic, "", "b", nil) })
		mustPanic("Plan.AddTimed", func() {
			p.AddTimed(0, Generic, "", "b", func(x *Ctx) sim.Time { return x.P.Now() })
		})
		mustPanic("Graph.Add", func() { g.Add(0, Generic, "", "b", nil) })
		mustPanic("Lane", func() { p.Lane("helper") })
		mustPanic("After", func() { n.After(n) })
		mustPanic("Awaiting", func() { n.Awaiting(func(*Ctx) []*mpi.Request { return nil }) })
		mustPanic("WaitingIn", func() { n.WaitingIn("backward") })

		// A private graph is open until its first Execute.
		own := New(r)
		own.Add(0, Generic, "", "a", nil)
		own.Execute(nil, 0)
		mustPanic("Add after Execute", func() { own.Add(0, Generic, "", "b", nil) })
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecuteAfterRevokedUnwindStartsClean abandons an execution the
// way a revoked communicator does — the main lane panics mid-graph with
// a send posted and never awaited, one helper node fired and another
// parked on a main-lane node that never ran — and executes the same
// instance again.
func TestExecuteAfterRevokedUnwindStartsClean(t *testing.T) {
	w := newWorld(2)
	comm := w.WorldComm()
	tr := &recTracer{}
	_, err := w.Run(func(r *mpi.Rank) {
		if r.ID == 1 {
			for it := 0; it < 2; it++ {
				r.Recv(comm, 0, it, gpu.NewBuffer(8))
			}
			return
		}
		g := New(r)
		var sends []*mpi.Request
		helper := g.Lane("helper")
		g.Add(0, PostBcast, "", "post", func(x *Ctx) {
			sends = append(sends, x.R.Isend(comm, 1, x.It, gpu.NewBuffer(8), topology.ModeAuto))
		})
		h := g.Plan().AddTimed(helper, ComputeBackward, "backward", "bwd", func(x *Ctx) sim.Time { return x.P.Now() + 10 })
		g.Plan().AddTimed(0, Generic, "", "work", func(x *Ctx) sim.Time {
			if x.It == 0 {
				return x.P.Now() + 20
			}
			return x.P.Now()
		})
		g.Add(0, Generic, "", "trip", func(x *Ctx) {
			if x.It == 0 {
				panic(mpi.Revoked{})
			}
		})
		late := g.Add(0, Reduce, "aggregation", "reduce", nil).After(h).WaitingIn("backward")
		g.Add(helper, Generic, "", "parked", nil).After(late)
		g.Add(0, DrainSends, "propagation", "drain", nil).Awaiting(func(x *Ctx) []*mpi.Request { return sends[x.It:] })

		func() {
			defer func() {
				if rec := recover(); !mpi.IsRevoked(rec) {
					t.Errorf("first Execute unwound with %v, want Revoked", rec)
				}
			}()
			g.Execute(tr, 0)
		}()
		if !g.done[h.done].Fired() || len(sends) != 1 {
			t.Fatalf("abandoned execution left fired=%v, %d sends; the drill needs both stale",
				g.done[h.done].Fired(), len(sends))
		}
		r.KillThreads() // what recovery does to lanes of the abandoned iteration
		tr.spans = nil
		g.Execute(tr, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second execution starts at 20; "reduce" must wait for the new
	// helper node (fires at 30), not see the abandoned one's completion.
	wait := tr.find("reduce/wait")
	if wait == nil || wait.start != 20 || wait.end != 30 {
		t.Errorf("reduce wait span = %+v, want [20,30] (spans %+v)", wait, tr.spans)
	}
}

// TestHelperLaneThreadPersists: a helper lane runs on one proc for the
// life of its instance, idle between executions and woken by the next,
// so an iteration whose nodes are all steps takes no goroutine switch.
// A proc killed while idle, or unwound mid-lane by a revocation, is
// replaced by a fresh one at the next Execute. A run that ends with the
// lane idle retires it: no deadlock, and no goroutine outlives Run.
func TestHelperLaneThreadPersists(t *testing.T) {
	const killIdleAfter, trip, iters = 2, 5, 8
	before := runtime.NumGoroutine()
	w := newWorld(1)
	var procs []*sim.Proc
	var switches []uint64
	_, err := w.Run(func(r *mpi.Rank) {
		g := New(r)
		helper := g.Lane("helper")
		begin := g.Add(0, Generic, "", "begin", nil)
		// The helper reaches its revocation at once; lane 0 notices 20 later.
		bwd := g.plan.AddTimed(helper, ComputeBackward, "backward", "bwd", func(x *Ctx) sim.Time {
			if x.It == trip {
				panic(mpi.Revoked{})
			}
			return x.P.Now() + 5
		}).After(begin)
		g.plan.AddTimed(0, ComputeForward, "forward", "fwd", func(x *Ctx) sim.Time { return x.P.Now() + 20 })
		g.plan.AddTimed(0, Generic, "", "check", func(x *Ctx) sim.Time {
			if x.It == trip {
				panic(mpi.Revoked{})
			}
			return x.P.Now()
		})
		g.plan.AddTimed(0, Update, "update", "update", func(x *Ctx) sim.Time { return x.P.Now() + 1 }).After(bwd)
		for it := 0; it < iters; it++ {
			sw := w.K.Resumes().Switches
			if unwound := executeUnlessRevoked(g, it); unwound != (it == trip) {
				t.Fatalf("iteration %d: Execute unwound = %v", it, unwound)
			}
			procs = append(procs, g.lanes[helper].ctx.P)
			switches = append(switches, w.K.Resumes().Switches-sw)
			if it == killIdleAfter {
				r.KillThreads()
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("goroutine switches per iteration: %v", switches)
	for it := 1; it < iters; it++ {
		fresh := it == killIdleAfter+1 || it == trip+1
		if (procs[it] != procs[it-1]) != fresh {
			t.Errorf("iteration %d ran the helper lane on proc %p, the one before on %p; want a fresh proc: %v", it, procs[it], procs[it-1], fresh)
		}
	}
	for _, it := range []int{1, 2, killIdleAfter + 2, iters - 1} {
		if switches[it] != 0 {
			t.Errorf("iteration %d took %d goroutine switches, want none (all switches: %v)", it, switches[it], switches)
		}
	}
	for _, p := range procs {
		if !p.Finished() {
			t.Errorf("helper proc %q outlived the run", p.Name())
		}
	}
	// A finished proc's goroutine returns right after handing the baton
	// on; give the last ones a moment to exit.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// executeUnlessRevoked runs one iteration and reports whether a
// revocation unwound it.
func executeUnlessRevoked(g *Graph, it int) (unwound bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if !mpi.IsRevoked(rec) {
				panic(rec)
			}
			unwound = true
		}
	}()
	g.Execute(nil, it)
	return false
}
