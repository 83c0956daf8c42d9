package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

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

func (t *recTracer) NodeSpan(lane int, kind Kind, phase, label string, wait bool, start, end sim.Time) {
	if wait {
		label += "/wait"
	}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
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
		return &executions{g: g, tr: tr, n: 1}
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

// TestGraphStartedBeforeItsProc: a graph started in the builder
// mpi.World.RunSteps calls, before the rank's proc is made, walks lane 0
// with the proc that steps it.
func TestGraphStartedBeforeItsProc(t *testing.T) {
	w := newWorld(1)
	var walked *sim.Proc
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		g.Plan().AddTimed(0, ComputeForward, "forward", "a", func(x *Ctx) sim.Time {
			walked = x.P
			return x.P.Now() + 10
		})
		g.Start(nil, 0)
		return g
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked == nil || walked != w.Ranks[0].Proc {
		t.Errorf("lane 0 walked with proc %v, want the rank's", walked)
	}
	if w.K.Now() != 10 {
		t.Errorf("final time = %v, want 10", w.K.Now())
	}
}

func TestCrossLaneDependencyAndWaitPhase(t *testing.T) {
	w := newWorld(1)
	tr := &recTracer{}
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		helper := g.Lane("helper")
		begin := g.Add(0, Generic, "", "begin", nil)
		hw := g.Plan().AddTimed(helper, ComputeBackward, "backward", "bwd", func(x *Ctx) sim.Time {
			return x.P.Now() + 40
		}).After(begin)
		g.Plan().AddTimed(0, Reduce, "aggregation", "reduce", func(x *Ctx) sim.Time {
			return x.P.Now() + 7
		}).After(hw).WaitingIn("backward")
		return &executions{g: g, tr: tr, n: 1}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		helper := g.Lane("helper")
		g.Plan().AddTimed(helper, Generic, "", "slow", func(x *Ctx) sim.Time { return x.P.Now() + 100 })
		g.Plan().AddTimed(0, Generic, "", "fast", func(x *Ctx) sim.Time { return x.P.Now() + 1 })
		// The execution must not end before the helper lane finishes.
		return &executions{g: g, n: 1, then: func(int) {
			if r.Now() != 100 {
				t.Errorf("the execution ended at %v, want 100", r.Now())
			}
		}}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		if r.ID == 1 {
			g.Plan().AddTimed(0, Generic, "", "late", func(x *Ctx) sim.Time { return x.P.Now() + 1000 })
			addRecv(g, comm, 0, 9, gpu.NewBuffer(bytes))
			return &executions{g: g, n: 1}
		}
		var reqs []*mpi.Request
		g.Add(0, PostBcast, "", "post", func(x *Ctx) {
			reqs = append(reqs[:0], nil, x.R.Isend(comm, 1, 9, gpu.NewBuffer(bytes), topology.ModeAuto))
		})
		g.Add(0, DrainSends, "propagation", "drain", nil).Awaiting(func(*Ctx) []*mpi.Request { return reqs })
		return &executions{g: g, tr: tr, n: 1}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		a := g.Add(0, Generic, "", "a", nil)
		b := g.Add(0, Generic, "", "b", nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("forward same-lane dependency should panic")
				}
			}()
			a.After(b)
		}()
		return &executions{}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGateOffMainLanePanics(t *testing.T) {
	w := newWorld(1)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		helper := g.Lane("helper")
		n := g.Add(helper, Generic, "", "h", nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a helper-lane node awaiting requests should panic")
				}
			}()
			n.Awaiting(func(*Ctx) []*mpi.Request { return nil })
		}()
		return &executions{}
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
	if _, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		var g *Graph
		if shared {
			g = plan.Bind(r)
		} else {
			g = New(r)
			obrShape(g.Plan(), comm, ranks)
		}
		return &executions{g: g, tr: &tracers[r.ID], n: iters}
	}); err != nil {
		t.Fatal(err)
	}
	spans := make([][]spanRec, ranks)
	for i := range tracers {
		spans[i] = tracers[i].spans
	}
	return spans
}

// executions is a rank's main proc that executes a graph for iterations
// it to n-1, as steps: Start, then the graph's steps until it is done,
// then then, if set, with the iteration.
type executions struct {
	g       *Graph
	tr      Tracer
	it, n   int
	started bool
	then    func(it int)
}

func (e *executions) Step(p *sim.Proc) bool {
	for ; e.it < e.n; e.it++ {
		if !e.started {
			e.started = true
			e.g.Start(e.tr, e.it)
		}
		if !e.g.Step(p) {
			return false
		}
		e.started = false
		if e.then != nil {
			e.then(e.it)
		}
	}
	return true
}

// stepSeq is steppers run one after another as one proc's steps.
type stepSeq struct {
	list []sim.Stepper
	i    int
}

func (s *stepSeq) Step(p *sim.Proc) bool {
	for ; s.i < len(s.list); s.i++ {
		if !s.list[s.i].Step(p) {
			return false
		}
	}
	return true
}

// do is a stepper that runs fn in one step.
type do func()

func (fn do) Step(*sim.Proc) bool { fn(); return true }

// addRecv adds a blocking receive to lane 0 of g as a plan has it: a node
// that posts the receive, and one that awaits it.
func addRecv(g *Graph, comm *mpi.Comm, from, tag int, buf *gpu.Buffer) {
	var reqs []*mpi.Request
	g.Add(0, Generic, "", "recv", func(x *Ctx) { reqs = append(reqs[:0], x.R.Irecv(comm, from, tag, buf)) })
	g.Add(0, Generic, "", "recv/await", nil).Awaiting(func(*Ctx) []*mpi.Request { return reqs })
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := two.Bind(r)

		// A helper lane nobody depends on still ends in a completion: lane 0
		// joins it.
		tail := New(r)
		helper := tail.Lane("helper")
		tail.Add(helper, Generic, "", "a", nil)
		tail.Add(helper, Generic, "", "b", nil)
		tail.Add(0, Generic, "", "c", nil)

		one := New(r)
		one.Add(0, Generic, "", "a", nil)
		one.Add(0, Generic, "", "b", nil).After(one.Plan().lanes[0][0])

		return &stepSeq{list: []sim.Stepper{
			&executions{g: g, n: 1},
			do(func() {
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
			}),
			&executions{g: tail, n: 1},
			do(func() {
				if len(tail.done) != 1 {
					t.Errorf("unreferenced helper lane: instance holds %d completions, want 1 (its tail)", len(tail.done))
				}
			}),
			&executions{g: one, n: 1},
			do(func() {
				if len(one.done) != 0 {
					t.Errorf("single-lane plan: instance holds %d completions, want 0", len(one.done))
				}
			}),
		}}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
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

		// A private graph is open until its first execution.
		own := New(r)
		own.Add(0, Generic, "", "a", nil)
		return &executions{g: own, n: 1, then: func(int) {
			mustPanic("Add after an execution", func() { own.Add(0, Generic, "", "b", nil) })
		}}
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
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		g := New(r)
		if r.ID == 1 {
			for it := 0; it < 2; it++ {
				addRecv(g, comm, 0, it, gpu.NewBuffer(8))
			}
			return &executions{g: g, n: 1}
		}
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

		return &executions{g: g, tr: tr, n: 2, then: func(it int) {
			if it != 0 {
				return
			}
			if !g.Revoked() {
				t.Errorf("the first execution ended unrevoked, want a revocation")
			}
			if !g.done[h.done].Fired() || len(sends) != 1 {
				t.Fatalf("abandoned execution left fired=%v, %d sends; the drill needs both stale",
					g.done[h.done].Fired(), len(sends))
			}
			r.KillThreads() // what recovery does to lanes of the abandoned iteration
			tr.spans = nil
		}}
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
// life of its instance, idle between executions and woken by the next.
// A proc killed while idle, or unwound mid-lane by a revocation, is
// replaced by a fresh one at the next execution. A run that ends with the
// lane idle retires it: no deadlock, and no goroutine outlives Run.
func TestHelperLaneThreadPersists(t *testing.T) {
	const killIdleAfter, trip, iters = 2, 5, 8
	before := runtime.NumGoroutine()
	w := newWorld(1)
	var procs []*sim.Proc
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
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
		return &executions{g: g, n: iters, then: func(it int) {
			if unwound := g.Revoked(); unwound != (it == trip) {
				t.Fatalf("iteration %d: execution revoked = %v", it, unwound)
			}
			procs = append(procs, g.lanes[helper].ctx.P)
			if it == killIdleAfter {
				r.KillThreads()
			}
		}}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for it := 1; it < iters; it++ {
		fresh := it == killIdleAfter+1 || it == trip+1
		if (procs[it] != procs[it-1]) != fresh {
			t.Errorf("iteration %d ran the helper lane on proc %p, the one before on %p; want a fresh proc: %v", it, procs[it], procs[it-1], fresh)
		}
	}
	for _, p := range procs {
		if !p.Finished() {
			t.Errorf("helper proc %q outlived the run", p.Name())
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}
