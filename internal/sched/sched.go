// Package sched executes one training iteration as a dependency graph
// of typed nodes on the simulator's cooperative kernel. Each design
// (SC-B, SC-OB, SC-OBR, and the baselines) becomes a graph-construction
// policy instead of a bespoke imperative loop: the nodes are the same
// compute and communication steps, and the edges encode exactly where
// communication is posted and waited relative to per-layer compute —
// the axis along which the paper's designs differ (Sections 4.1–4.3).
//
// A graph is two things. The Plan is the immutable part — nodes,
// lanes, labels, dependency indices, actions — built once and shared by
// every rank that plays the same role; the Graph is one rank's small
// mutable instance of it (node completions, lane walks) and is what a
// rank executes, iteration after iteration: Start, then the graph's
// steps.
//
// A plan holds one or more lanes. Lane 0 runs inline on the rank's
// main proc; every additional lane becomes a simulated thread inside
// the rank (SC-OBR's backward helper). Within a lane, nodes run in
// insertion order; cross-lane edges (Node.After) and request awaits
// (Node.Awaiting) add the explicit dependencies. Every node emits a
// trace span for its action and, separately, for any time it spent
// blocked on dependencies, so the timeline a graph produces is exactly
// the timeline the equivalent hand-written loop produced.
//
// A lane is not a loop on a goroutine but a walk over the plan's node
// table done in steps on the simulator's event loop (sim.Stepper): a
// dependency that fires, a request that completes, a kernel that ends
// each resume the walk where it stopped. Lane 0's walk is the graph's
// stepper, which the rank's own stepper drives; each helper lane's is a
// proc with no goroutine. Nothing a node does parks — a park inside a
// step panics — and work that is not ready yet calls Ctx.Again. A
// revoked communicator (mpi.Revoked, raised by a node or a fragment it
// splices) ends the lane's walk where it is raised: the top of the walk
// is the one place that catches it, and Graph.Revoked tells lane 0's
// caller.
//
// A plan may also be a fragment — a collective's posts, waits and
// kernels, as package coll compiles them, or any blocking call's post
// and await — walked by a splice node in its place, or on its own by a
// Walk.
package sched

import (
	"fmt"
	"slices"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// Kind classifies a node for tracing and diagnostics.
type Kind int

const (
	// Generic is control flow or zero-cost bookkeeping.
	Generic Kind = iota
	// DataWait waits on the rank's data-reader queue.
	DataWait
	// Pack flattens parameters or gradients into a packed buffer.
	Pack
	// Unpack writes a packed buffer back into the model.
	Unpack
	// PostBcast posts non-blocking broadcasts (returns immediately).
	PostBcast
	// WaitBcast completes a broadcast the node's consumer needs.
	WaitBcast
	// ComputeForward runs one layer's forward kernel.
	ComputeForward
	// ComputeBackward runs one layer's backward kernel.
	ComputeBackward
	// Reduce runs a gradient reduction (per layer, bucket, or model).
	Reduce
	// DrainSends completes the root's outstanding broadcast sends.
	DrainSends
	// Update applies the solver update.
	Update
)

var kindNames = [...]string{"generic", "data-wait", "pack", "unpack", "post-bcast", "wait-bcast", "fwd", "bwd", "reduce", "drain-sends", "update"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Ctx is what a node's action receives: the rank the graph runs on,
// the proc executing this node (the rank's main proc for lane 0, the
// lane's own thread otherwise), and the iteration the graph is being
// executed for; a fragment's nodes also get the buffer and tag their
// splice picked. A plan is built once and executed by many ranks for
// many iterations, so an action may capture only what every rank and
// iteration of its plan share: anything per-rank is looked up through
// R, anything per-iteration comes from It, Buf and Tag.
type Ctx struct {
	R   *mpi.Rank
	P   *sim.Proc
	It  int
	Buf *gpu.Buffer
	Tag int

	again bool // the running callback armed its own resume: see Again
}

// Again, from an action or a timed node's callback that found its work
// not ready and armed the proc's resume for when it will be —
// data.Reader.TryNext finding its queue without a token and registering
// the proc as a getter, mpi.Rank.PollBarrier arming a
// round's wait, mpi.Summed.Settle a retransmission's — has the lane run
// the callback again at that resume instead of going on; a timed
// callback's time is ignored then.
func (x *Ctx) Again() { x.again = true }

// Tracer receives one span per node execution: the action span under
// the node's phase, and a separate wait span (wait set) for time spent
// blocked on dependencies or awaits, which a trace labels
// "<label>/wait". Zero-length spans are not emitted.
type Tracer interface {
	NodeSpan(lane int, kind Kind, phase, label string, wait bool, start, end sim.Time)
}

// Node is one step of a plan. Nodes are written only while the plan is
// being built; execution reads them from many ranks at once.
type Node struct {
	p         *Plan
	kind      Kind
	label     string
	phase     string // phase charged for action time; "" = untraced
	waitPhase string // phase charged for dependency-wait time
	lane      int32
	index     int32                                // position within the lane
	done      int32                                // the node's completion in Graph.done; -1 when no lane waits for it (set by Seal)
	action    func(*Ctx)                           // runs in the step: the lane goes on at once
	timed     func(*Ctx) sim.Time                  // runs in the step: the lane resumes at the time it returns
	splice    func(*Ctx) (*Plan, *gpu.Buffer, int) // the fragment to walk in the node's place
	deps      []*Node                              // the cross-lane nodes this one waits for
	awaits    func(*Ctx) []*mpi.Request            // requests the executing rank keeps, waited after the deps
}

// After adds dependency edges. Same-lane edges to earlier nodes are
// implicit (lanes run in insertion order) and ignored; a same-lane edge
// to a later node would deadlock the lane and panics immediately.
func (n *Node) After(deps ...*Node) *Node {
	n.p.building(n.label)
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.lane == n.lane {
			if d.index >= n.index {
				panic(fmt.Sprintf("sched: node %q depends forward on %q within lane %d", n.label, d.label, n.lane))
			}
			continue
		}
		n.deps = append(n.deps, d)
	}
	return n
}

// Awaiting makes the node wait, after its dependencies and before its
// action, for the requests reqs returns, in order; nil ones are ignored.
// The requests are the executing rank's own — kept in its workload or its
// reducer state by the node that posted them — and each is released as
// its wait ends, as Rank.Wait releases it. Request waits need the rank's
// main proc, so only lane 0 awaits.
func (n *Node) Awaiting(reqs func(*Ctx) []*mpi.Request) *Node {
	n.p.building(n.label)
	if n.lane != 0 {
		panic(fmt.Sprintf("sched: node %q waits for requests on lane %d; request waits need the rank's main proc", n.label, n.lane))
	}
	n.awaits = reqs
	return n
}

// WaitingIn charges the node's dependency-wait time to a different
// phase than its action (SC-OBR waits for a backward layer in
// "backward", then reduces in "aggregation").
func (n *Node) WaitingIn(phase string) *Node {
	n.p.building(n.label)
	n.waitPhase = phase
	return n
}

// Plan is the immutable description of one iteration: what runs, on
// which lane, after what. Build it, Seal it, then Bind it to any number
// of ranks: neither Bind nor an execution writes a sealed plan.
type Plan struct {
	lanes     [][]*Node
	laneNames []string
	waited    int // nodes some lane waits for: completions an instance holds (set by Seal)
	sealed    bool
	// slab is the node arena: nodes are carved from chunks, each as large
	// as all before it up to nodeSlab, or as Grow asks, so a built plan is
	// a handful of contiguous blocks laid out in execution order.
	slab []Node
}

// nodeSlab is the largest arena chunk; chunks must never grow in place
// (returned *Node pointers are stable for the plan's lifetime).
const nodeSlab = 128

// NewPlan returns an empty plan with lane 0 (the rank's main proc)
// ready.
func NewPlan() *Plan {
	return &Plan{lanes: make([][]*Node, 1), laneNames: []string{"main"}}
}

// building panics when the plan can no longer change.
func (p *Plan) building(what string) {
	if p.sealed {
		panic(fmt.Sprintf("sched: %q changes a sealed plan", what))
	}
}

// Grow makes room for n more nodes on lane in one arena chunk, so a plan
// whose size is known before its first Add — a fragment compiled from a
// step list — carves exactly the nodes it adds, not chunks doubling up to
// nodeSlab. Whatever the current chunk has left is dropped if it is
// fewer than n.
func (p *Plan) Grow(lane, n int) {
	p.building("Grow")
	if cap(p.slab)-len(p.slab) < n {
		p.slab = make([]Node, 0, n)
	}
	p.lanes[lane] = slices.Grow(p.lanes[lane], n)
}

// Lane allocates an additional lane, executed as a simulated thread
// inside the rank (mpi.Rank.SpawnThread), and returns its index.
func (p *Plan) Lane(name string) int {
	p.building(name)
	p.lanes = append(p.lanes, nil)
	p.laneNames = append(p.laneNames, name)
	return len(p.lanes) - 1
}

// Add appends a node to the lane. The action may be nil (a pure
// synchronization point); one that is not runs in the lane's step and
// takes no virtual time — it posts, books, computes — and must not park
// (a park there panics): what it waits for is another node's await, a
// timed node, a splice, or, for work not ready yet, Again. The wait phase
// defaults to the action phase; override with WaitingIn.
func (p *Plan) Add(lane int, kind Kind, phase, label string, action func(*Ctx)) *Node {
	n := p.add(lane, kind, phase, label)
	n.action = action
	return n
}

// AddTimed appends a node that occupies its lane until a time it
// computes and does nothing else that blocks — a device kernel, a fixed
// overhead. until runs when the node's dependencies and awaits are
// satisfied, does the node's work (launching the kernel, the real
// arithmetic) and returns when the lane may go on; the lane sleeps
// until then. It is the blocking action "work; sleep until end" with the
// wait left to the scheduler, which takes it as a step on the event
// loop: until must not park the proc (work not ready yet calls Again).
func (p *Plan) AddTimed(lane int, kind Kind, phase, label string, until func(*Ctx) sim.Time) *Node {
	n := p.add(lane, kind, phase, label)
	n.timed = until
	return n
}

// AddSplice appends a lane-0 node that walks in its place the fragment
// frag names, if any: a sealed single-lane plan, whose nodes see the
// buffer and tag named with it as Ctx.Buf and Ctx.Tag. They run like the
// lane's own but emit no spans, and may splice fragments, their own
// included. The node's span is the whole walk.
func (p *Plan) AddSplice(kind Kind, phase, label string, frag func(*Ctx) (*Plan, *gpu.Buffer, int)) *Node {
	n := p.add(0, kind, phase, label)
	n.splice = frag
	return n
}

func (p *Plan) add(lane int, kind Kind, phase, label string) *Node {
	p.building(label)
	if lane < 0 || lane >= len(p.lanes) {
		panic(fmt.Sprintf("sched: node %q on unknown lane %d", label, lane))
	}
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Node, 0, min(max(2*cap(p.slab), 4), nodeSlab))
		p.lanes[lane] = slices.Grow(p.lanes[lane], cap(p.slab))
	}
	p.slab = append(p.slab, Node{
		p: p, kind: kind, label: label, phase: phase, waitPhase: phase,
		lane: int32(lane), index: int32(len(p.lanes[lane])), done: -1,
	})
	n := &p.slab[len(p.slab)-1]
	p.lanes[lane] = append(p.lanes[lane], n)
	return n
}

// Seal ends construction: every later Lane, Add, After, Awaiting or
// WaitingIn panics. The plan now knows which of its nodes cross lanes —
// the ones another lane's node comes After, and each helper lane's last,
// which lane 0 joins — and numbers those: they are the only nodes whose
// finishing anybody waits for, so the only ones an instance keeps a
// completion for.
func (p *Plan) Seal() {
	if p.sealed {
		return
	}
	p.sealed = true
	wait := func(n *Node) {
		if n.done < 0 {
			n.done = int32(p.waited)
			p.waited++
		}
	}
	for li, lane := range p.lanes {
		for _, n := range lane {
			for _, d := range n.deps {
				wait(d)
			}
		}
		if li > 0 && len(lane) > 0 {
			wait(lane[len(lane)-1])
		}
	}
}

// Bind returns rank r's instance of the sealed plan.
func (p *Plan) Bind(r *mpi.Rank) *Graph {
	if !p.sealed {
		panic("sched: Bind on a plan still under construction")
	}
	return &Graph{plan: p, r: r}
}

// Graph is one rank's instance of a plan: the per-rank state an
// execution writes. It is reused across iterations: Start readies an
// execution for an iteration, and the graph is then the stepper of the
// rank's main proc until a step reports done.
type Graph struct {
	plan  *Plan
	r     *mpi.Rank
	done  []sim.Completion // per node another lane waits for, by Node.done
	lanes []laneRun        // per lane: its walk's state; nil until the first Start
}

// New returns an empty private plan together with rank r's instance of
// it, with lane 0 (the rank's main proc) ready: build it through Lane
// and Add. The first Start seals the plan.
func New(r *mpi.Rank) *Graph {
	return &Graph{plan: NewPlan(), r: r}
}

// Plan returns the plan the graph is an instance of.
func (g *Graph) Plan() *Plan { return g.plan }

// Lane is Plan.Lane on a New graph's private plan.
func (g *Graph) Lane(name string) int { return g.plan.Lane(name) }

// Add is Plan.Add on a New graph's private plan.
func (g *Graph) Add(lane int, kind Kind, phase, label string, action func(*Ctx)) *Node {
	return g.plan.Add(lane, kind, phase, label, action)
}

// Start readies the graph's execution for iteration it: each helper
// lane on its own rank thread, a proc with no goroutine, and lane 0 at
// its first node, for the steps of the rank's main proc (Step), which
// the execution ends with once every lane's last node has finished.
// tracer may be nil.
//
// A helper lane's thread is spawned by the first Start and lives as
// long as the instance: at the end of its walk it idles
// (sim.Proc.ArmIdle), and the next Start wakes it with the same resume
// a spawn would have scheduled, so a lane whose nodes are all steps runs
// a whole iteration on the event loop. A thread that was killed or whose
// walk a revocation ended is replaced by a fresh one.
//
// Each execution starts clean: Start re-initializes the completions,
// whose generation bump dissolves any reference left over from an
// execution a revocation ended. The helper threads of such an execution
// must be dead (mpi.Rank.KillThreads, as recovery does) before the
// next: a lane's walk state is the instance's, not the thread's.
func (g *Graph) Start(tracer Tracer, it int) {
	pl := g.plan
	if g.lanes == nil {
		// First execution: the plan is complete (Bind demands a sealed
		// one, a New graph's is sealed here — a shared plan must not be
		// written), so size the instance.
		pl.Seal()
		g.done = make([]sim.Completion, pl.waited)
		lanes := make([]laneRun, len(pl.lanes)+1) // and lane 0's splice walk
		g.lanes = lanes[:len(pl.lanes)]
		g.lanes[0].sub = &lanes[len(pl.lanes)]
		for li := range g.lanes {
			l := &g.lanes[li]
			l.g, l.nodes = g, pl.lanes[li]
			l.ctx = Ctx{R: g.r}
		}
	}
	k := g.r.W.K
	for i := range g.done {
		g.done[i].Init(k)
	}
	for li := 1; li < len(g.lanes); li++ {
		if l := &g.lanes[li]; len(l.nodes) > 0 {
			l.reset(tracer, it)
			if l.ctx.P == nil || !l.ctx.P.Wake() {
				l.ctx.P = g.r.SpawnThread(pl.laneNames[li], l)
			}
		}
	}
	g.lanes[0].reset(tracer, it)
	g.lanes[0].ctx.P = g.r.Proc
}

// Step walks lane 0 of the execution Start readied up to its next wait,
// as a step of the rank's main proc, and reports done at the end of the
// execution — or where a revocation ended it (Revoked).
func (g *Graph) Step(p *sim.Proc) bool {
	l := &g.lanes[0]
	l.ctx.P = p // a graph started in mpi.World.RunSteps's builder has no proc at Start
	return l.Step(p)
}

// Revoked reports whether a revoked communicator (mpi.Revoked) ended
// the last execution's lane 0 before its end.
func (g *Graph) Revoked() bool { return g.lanes[0].revoked }

// Execute runs the graph for iteration it on the rank's main proc,
// which must have a goroutine, and returns when it is done: Start, then
// the graph's steps under RunSteps; a revocation panics with
// mpi.Revoked on the goroutine. Training runs step graphs directly.
func (g *Graph) Execute(tracer Tracer, it int) {
	g.Start(tracer, it)
	g.r.Proc.RunSteps(g)
	if g.Revoked() {
		panic(mpi.Revoked{})
	}
}

// Walk is the walk of a sealed one-lane plan that is a proc's whole
// life: the stepper of a rank's main proc with no goroutine
// (mpi.World.RunSteps), which walks the plan over and over, Ctx.It
// counting the walks, and finishes the proc at the end of the last, or
// where a revocation ends one. The zero value is ready. The walk of the
// fragment its plan splices is carved with it.
type Walk struct {
	laneRun
	sub   laneRun
	times int
}

// Run walks fragment frag, if any, once for (buf, tag) on rank r's main
// proc, which must have a goroutine: its steps run under RunSteps, and a
// revocation panics with mpi.Revoked on the goroutine.
func (w *Walk) Run(r *mpi.Rank, frag *Plan, buf *gpu.Buffer, tag int) {
	if frag != nil {
		r.Proc.RunSteps(w.Start(r, frag, buf, tag, 1))
		if w.revoked {
			panic(mpi.Revoked{})
		}
	}
}

// Start points w at times walks (at least one) of plan on rank r, whose
// nodes see buf and tag as Ctx.Buf and Ctx.Tag, and returns it as the
// stepper of r's main proc.
func (w *Walk) Start(r *mpi.Rank, plan *Plan, buf *gpu.Buffer, tag, times int) sim.Stepper {
	w.start(r, 0, plan, buf, tag)
	w.laneRun.sub, w.times = &w.sub, times
	return w
}

// Step walks the plan up to its next wait, and starts it over at its end
// until the last walk.
func (w *Walk) Step(p *sim.Proc) bool {
	w.ctx.P = p // the rank's proc is made after Start
	for w.laneRun.Step(p) {
		if w.ctx.It++; w.revoked || w.ctx.It >= w.times {
			return true
		}
		w.i, w.at = 0, atEnter
	}
	return false
}

// start points the walk at the first node of frag, for (buf, tag).
func (s *laneRun) start(r *mpi.Rank, it int, frag *Plan, buf *gpu.Buffer, tag int) {
	if !frag.sealed || len(frag.lanes) != 1 {
		panic("sched: a fragment must be a sealed single-lane plan")
	}
	s.nodes, s.ctx = frag.lanes[0], Ctx{R: r, P: r.Proc, It: it, Buf: buf, Tag: tag}
	s.i, s.at, s.w, s.revoked = 0, atEnter, mpi.Waiter{}, false
}

// laneRun is the state of one lane's walk over its nodes. The walk is a
// sim.Stepper: Step takes the current node through its dependencies,
// its awaits, its action and its completion, and moves to the next,
// until a wait has to be armed. Every rank keeps a few of these for as
// long as it lives, so the counters are int32s: a plan is far from 2^31
// nodes.
type laneRun struct {
	g      *Graph // nil for a fragment's walk
	nodes  []*Node
	ctx    Ctx // P is the lane's proc: a helper lane's thread, idle between executions
	tracer Tracer
	sub    *laneRun // the walk of the fragment a splice node runs; kept for the next

	entered, began sim.Time // when the node was entered / its action began (traced runs)

	i       int32  // the node being walked
	d       int32  // dependencies already satisfied
	q       int32  // awaited requests already complete
	join    int32  // lane 0, past its last node: the next helper lane to join
	at      laneAt // how far into the node
	revoked bool   // a revocation ended the walk
	w       mpi.Waiter
}

type laneAt uint8

const (
	atEnter  laneAt = iota // nothing of the node done yet
	atDeps                 // waiting out its dependencies
	atAwaits               // waiting out its awaited requests
	atAction               // its action is due
	atSplice               // its fragment is being walked (sub)
	atFinish               // its action is over: span, completion, next node
)

// reset points the walk at the lane's first node for iteration it.
func (l *laneRun) reset(tracer Tracer, it int) {
	l.ctx.It = it
	l.tracer = tracer
	l.i, l.at, l.join, l.revoked = 0, atEnter, 1, false
	l.w = mpi.Waiter{}
}

// Step is a step of the lane's walk as its proc sees it: the walk's top,
// the one place a revocation is caught. mpi.Revoked raised by any node of
// the lane or of a fragment it splices ends the walk there, revoked and
// done — a helper lane's thread finishes with it. Any other panic goes
// on up, to fail the run.
func (l *laneRun) Step(p *sim.Proc) (done bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if !mpi.IsRevoked(rec) {
				panic(rec)
			}
			l.revoked = true
			done = true
		}
	}()
	return l.walk(p)
}

// poll waits out reqs from l.q on: false while a wait is armed.
func (l *laneRun) poll(reqs []*mpi.Request) bool {
	for ; int(l.q) < len(reqs); l.q++ {
		if req := reqs[l.q]; req != nil && !l.ctx.R.PollRequest(&l.w, req) {
			return false
		}
	}
	return true
}

// walk waits the node's dependencies and awaits, runs its action, emits
// trace spans, fires its completion, and goes on to the next node.
// Untraced runs skip the timestamp bookkeeping — it exists only to
// position spans.
func (l *laneRun) walk(p *sim.Proc) bool {
	g, r := l.g, l.ctx.R
	for int(l.i) < len(l.nodes) {
		n := l.nodes[l.i]
		switch l.at {
		case atEnter:
			l.d, l.q = 0, 0
			if l.tracer != nil {
				l.entered = p.Now()
			}
			l.at = atDeps
			fallthrough
		case atDeps:
			for ; int(l.d) < len(n.deps); l.d++ {
				// Lane-0 predecessors have almost always fired already,
				// and a fired one costs no wait at all.
				if done := &g.done[n.deps[l.d].done]; l.w.Armed() || !done.Fired() {
					if !r.PollWait(p, &l.w, done) {
						return false
					}
				}
			}
			l.at = atAwaits
			fallthrough
		case atAwaits:
			if n.awaits != nil && !l.poll(n.awaits(&l.ctx)) {
				return false
			}
			if l.tracer != nil {
				l.began = p.Now()
				if l.began > l.entered && n.waitPhase != "" {
					l.tracer.NodeSpan(int(n.lane), n.kind, n.waitPhase, n.label, true, l.entered, l.began)
				}
			}
			l.at = atAction
			fallthrough
		case atAction:
			l.at = atFinish
			switch {
			case n.timed != nil:
				until := n.timed(&l.ctx)
				if l.ctx.again {
					l.ctx.again = false
					l.at = atAction
					return false
				}
				p.ArmUntil(until)
				return false
			case n.splice != nil:
				if frag, buf, tag := n.splice(&l.ctx); frag != nil {
					if l.sub == nil {
						l.sub = &laneRun{}
					}
					l.sub.start(r, l.ctx.It, frag, buf, tag)
					l.at = atSplice
					continue
				}
			case n.action != nil:
				if n.action(&l.ctx); l.ctx.again {
					l.ctx.again = false
					l.at = atAction
					return false
				}
			}
			fallthrough
		case atFinish:
			if l.tracer != nil {
				if end := p.Now(); end > l.began && n.phase != "" {
					l.tracer.NodeSpan(int(n.lane), n.kind, n.phase, n.label, false, l.began, end)
				}
			}
			if n.done >= 0 {
				g.done[n.done].Fire()
			}
			l.i++
			l.at = atEnter
		case atSplice:
			if !l.sub.walk(p) {
				return false
			}
			l.at = atFinish
		}
	}
	if g == nil {
		return true // a fragment's walk: its splice goes on
	}
	if l != &g.lanes[0] {
		p.ArmIdle() // until the next Start
		return false
	}
	// Lane 0 outlasts its helpers. A well-formed graph orders it after
	// them (SC-OBR's join node), making these waits free.
	for ; int(l.join) < len(g.lanes); l.join++ {
		if h := g.lanes[l.join].nodes; len(h) > 0 {
			if !r.PollWait(p, &l.w, &g.done[h[len(h)-1].done]) {
				return false
			}
		}
	}
	return true
}
