// Package sched executes one training iteration as a dependency graph
// of typed nodes on the simulator's cooperative kernel. Each design
// (SC-B, SC-OB, SC-OBR, and the baselines) becomes a graph-construction
// policy instead of a bespoke imperative loop: the nodes are the same
// compute and communication steps, and the edges encode exactly where
// communication is posted and waited relative to per-layer compute —
// the axis along which the paper's designs differ (Sections 4.1–4.3).
//
// A graph is two things. The Plan is the immutable part — nodes,
// lanes, labels, dependency and gate indices, actions — built once and
// shared by every rank that plays the same role; the Graph is one
// rank's small mutable instance of it (gate requests, node completions)
// and is what Execute runs, iteration after iteration.
//
// A plan holds one or more lanes. Lane 0 runs inline on the rank's
// main proc; every additional lane becomes a simulated thread inside
// the rank (SC-OBR's backward helper). Within a lane, nodes run in
// insertion order; cross-lane edges (Node.After) and request gates
// (Node.Gated) add the explicit dependencies. Every node emits a trace
// span for its action and, separately, for any time it spent blocked on
// dependencies, so the timeline a graph produces is exactly the
// timeline the equivalent hand-written loop produced.
//
// A lane is not a loop on a goroutine but a walk over the plan's node
// table done in steps on the simulator's event loop (sim.Stepper): a
// dependency that fires, a request that completes, a kernel that ends
// each resume the walk where it stopped, on whichever goroutine is
// running the loop. Only a node whose action may block takes the lane's
// own goroutine, for that node.
package sched

import (
	"fmt"

	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// Kind classifies a node for tracing and diagnostics.
type Kind int

const (
	// Generic is control flow or zero-cost bookkeeping.
	Generic Kind = iota
	// DataWait blocks on the rank's data-reader queue.
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

func (k Kind) String() string {
	switch k {
	case Generic:
		return "generic"
	case DataWait:
		return "data-wait"
	case Pack:
		return "pack"
	case Unpack:
		return "unpack"
	case PostBcast:
		return "post-bcast"
	case WaitBcast:
		return "wait-bcast"
	case ComputeForward:
		return "fwd"
	case ComputeBackward:
		return "bwd"
	case Reduce:
		return "reduce"
	case DrainSends:
		return "drain-sends"
	case Update:
		return "update"
	}
	return "unknown"
}

// Ctx is what a node's action receives: the rank the graph runs on,
// the proc executing this node (the rank's main proc for lane 0, the
// lane's own thread otherwise), and the iteration the graph is being
// executed for. A plan is built once and executed by many ranks for
// many iterations, so an action may capture only what every rank and
// iteration of its plan share: anything per-rank is looked up through
// R, anything per-iteration comes from It.
type Ctx struct {
	R  *mpi.Rank
	P  *sim.Proc
	It int

	g *Graph
}

// Put hands a request to the nodes gated on slot s. Nil requests are
// ignored, and so is a slot no node of the executing plan is gated on:
// nobody would wait for its requests or reset them.
func (x *Ctx) Put(s *Slot, req *mpi.Request) {
	if req != nil && s.p == x.g.plan {
		x.g.reqs[s.id] = append(x.g.reqs[s.id], req)
	}
}

// Slot carries MPI requests from the node that creates them to the
// nodes gated on their completion. Requests exist only once the
// producing node has executed, so edges reference the slot, not the
// request. The slot itself is a plan-level name; the requests live in
// each executing Graph.
type Slot struct {
	p  *Plan // the plan whose nodes are gated on the slot; nil until one is
	id int   // index into the Graph.reqs of p's instances
}

// NewSlot returns a slot no node is gated on yet.
func NewSlot() *Slot { return &Slot{} }

// Tracer receives one span per node execution: the action span under
// the node's phase, and a separate "<label>/wait" span for time spent
// blocked on dependencies or gates. Zero-length spans are not emitted.
type Tracer interface {
	NodeSpan(lane int, kind Kind, phase, label string, start, end sim.Time)
}

// Node is one step of a plan. Nodes are written only while the plan is
// being built; execution reads them from many ranks at once.
type Node struct {
	p         *Plan
	kind      Kind
	label     string
	waitLabel string // label + "/wait"
	phase     string // phase charged for action time; "" = untraced
	waitPhase string // phase charged for dependency-wait time
	lane      int
	index     int                 // position within the lane
	done      int                 // the node's completion in Graph.done; -1 when no lane waits for it (set by Seal)
	action    func(*Ctx)          // may block: runs on the lane's goroutine
	timed     func(*Ctx) sim.Time // never blocks: the lane resumes at the time it returns
	deps      []*Node             // the cross-lane nodes this one waits for
	gates     []int               // ids of the slots this one waits for
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

// Gated makes the node wait for every request in the slots before its
// action runs. Gates use Rank.Wait (which progresses CPU-deferred
// requests), so they are lane-0 only.
func (n *Node) Gated(slots ...*Slot) *Node {
	n.p.building(n.label)
	if n.lane != 0 {
		panic(fmt.Sprintf("sched: node %q gated on lane %d; request gates need the rank's main proc", n.label, n.lane))
	}
	for _, s := range slots {
		switch s.p {
		case nil:
			s.p, s.id = n.p, n.p.slots
			n.p.slots++
		case n.p:
		default:
			panic(fmt.Sprintf("sched: node %q gated on a slot of another plan", n.label))
		}
		n.gates = append(n.gates, s.id)
	}
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
// of ranks: neither Bind nor Execute writes a sealed plan.
type Plan struct {
	lanes     [][]*Node
	laneNames []string
	slots     int // gated slots
	waited    int // nodes some lane waits for: completions an instance holds (set by Seal)
	sealed    bool
	// slab is the node arena: nodes are carved from fixed-size chunks
	// instead of allocated individually, so a built plan is a handful
	// of contiguous blocks laid out in execution order.
	slab []Node
}

// nodeSlab is the arena chunk size; chunks must never grow in place
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

// Lane allocates an additional lane, executed as a simulated thread
// inside the rank (mpi.Rank.SpawnThread), and returns its index.
func (p *Plan) Lane(name string) int {
	p.building(name)
	p.lanes = append(p.lanes, nil)
	p.laneNames = append(p.laneNames, name)
	return len(p.lanes) - 1
}

// Add appends a node to the lane. The action may be nil (a pure
// synchronization point); one that is not may block, so the lane hands
// it to its goroutine. The wait phase defaults to the action phase;
// override with WaitingIn.
func (p *Plan) Add(lane int, kind Kind, phase, label string, action func(*Ctx)) *Node {
	n := p.add(lane, kind, phase, label)
	n.action = action
	return n
}

// AddTimed appends a node that occupies its lane until a time it
// computes and does nothing else that blocks — a device kernel, a fixed
// overhead. until runs when the node's dependencies and gates are
// satisfied, does the node's work (launching the kernel, the real
// arithmetic) and returns when the lane may go on; the lane sleeps
// until then. It is the blocking action "work; WaitUntil(end)" with the
// wait left to the scheduler, which takes it as a step on the event
// loop: until must not park the proc.
func (p *Plan) AddTimed(lane int, kind Kind, phase, label string, until func(*Ctx) sim.Time) *Node {
	n := p.add(lane, kind, phase, label)
	n.timed = until
	return n
}

func (p *Plan) add(lane int, kind Kind, phase, label string) *Node {
	p.building(label)
	if lane < 0 || lane >= len(p.lanes) {
		panic(fmt.Sprintf("sched: node %q on unknown lane %d", label, lane))
	}
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Node, 0, nodeSlab)
	}
	p.slab = append(p.slab, Node{
		p: p, kind: kind, label: label, waitLabel: label + "/wait", phase: phase, waitPhase: phase,
		lane: lane, index: len(p.lanes[lane]), done: -1,
	})
	n := &p.slab[len(p.slab)-1]
	p.lanes[lane] = append(p.lanes[lane], n)
	return n
}

// Seal ends construction: every later Lane, Add, After, Gated or
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
			n.done = p.waited
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
// execution writes. It is reused across iterations by calling Execute
// repeatedly with different iteration numbers.
type Graph struct {
	plan  *Plan
	r     *mpi.Rank
	reqs  [][]*mpi.Request // per slot, filled by Ctx.Put; nil until the first Execute
	done  []sim.Completion // per node another lane waits for, by Node.done
	lanes []laneRun        // per lane: its walk's state
}

// New returns an empty private plan together with rank r's instance of
// it, with lane 0 (the rank's main proc) ready: build it through Lane
// and Add. The first Execute seals the plan.
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

// Execute runs the graph to completion on the rank's procs for
// iteration it: lane 0 runs on the calling rank's main proc, each helper
// lane on its own rank thread, and Execute returns only after every
// lane's last node has finished. tracer may be nil.
//
// A helper lane's thread is spawned by the first Execute and lives as
// long as the instance: at the end of its walk it parks idle
// (sim.Proc.ArmIdle), and the next Execute wakes it with the same resume
// a spawn would have scheduled, so a lane whose nodes are all steps runs
// a whole iteration on the event loop. A thread that was killed or
// unwound is replaced by a fresh one.
//
// Each Execute starts clean: it empties the gate slots and
// re-initializes the completions, whose generation bump dissolves
// any reference left over from an abandoned (Revoked-unwound) previous
// execution. The helper threads of an abandoned execution must be dead
// (mpi.Rank.KillThreads, as recovery does) before the next: a lane's
// walk state is the instance's, not the thread's.
func (g *Graph) Execute(tracer Tracer, it int) {
	pl := g.plan
	if g.reqs == nil {
		// First execution: the plan is complete (Bind demands a sealed
		// one, a New graph's is sealed here — a shared plan must not be
		// written), so size the instance. Most slots only ever hold one
		// request: each starts as a one-element window of a shared array
		// and gets a list of its own only if it outgrows that.
		pl.Seal()
		g.reqs = make([][]*mpi.Request, pl.slots)
		first := make([]*mpi.Request, pl.slots)
		for i := range g.reqs {
			g.reqs[i] = first[i : i : i+1]
		}
		g.done = make([]sim.Completion, pl.waited)
		g.lanes = make([]laneRun, len(pl.lanes))
		for li := range g.lanes {
			l := &g.lanes[li]
			l.g, l.nodes = g, pl.lanes[li]
			l.ctx = Ctx{R: g.r, g: g}
		}
	}
	k := g.r.W.K
	for i := range g.reqs {
		g.reqs[i] = g.reqs[i][:0]
	}
	for i := range g.done {
		g.done[i].Init(k)
	}
	for li := 1; li < len(g.lanes); li++ {
		if l := &g.lanes[li]; len(l.nodes) > 0 {
			l.reset(tracer, it)
			if l.proc == nil || !l.proc.Wake() {
				l.proc = g.r.SpawnThread(pl.laneNames[li], l.runThread)
			}
		}
	}
	g.lanes[0].reset(tracer, it)
	g.lanes[0].run(g.r.Proc)
}

// laneRun is the state of one lane's walk over its nodes. The walk is a
// sim.Stepper: Step takes the current node through its dependencies,
// its gates, its action and its completion, and moves to the next,
// until a wait has to be armed or an action needs the goroutine.
type laneRun struct {
	g      *Graph
	nodes  []*Node
	proc   *sim.Proc // a helper lane's thread, idle between executions
	ctx    Ctx
	tracer Tracer

	i    int    // the node being walked
	at   laneAt // how far into it
	d    int    // dependencies already satisfied
	s, q int    // gate slots already drained, and requests of slot s
	join int    // lane 0, past its last node: the next helper lane to join
	w    mpi.Waiter

	entered, began sim.Time // when the node was entered / its action began (traced runs)
}

type laneAt uint8

const (
	atEnter     laneAt = iota // nothing of the node done yet
	atDeps                    // waiting out its dependencies
	atGates                   // waiting out its gates
	atGateWait                // a deferred request's Wait needs the goroutine
	atAction                  // its action is due
	atActionRun               // its blocking action needs the goroutine
	atFinish                  // its action is over: span, completion, next node
)

// reset points the walk at the lane's first node for iteration it.
func (l *laneRun) reset(tracer Tracer, it int) {
	l.ctx.It = it
	l.tracer = tracer
	l.i, l.at, l.join = 0, atEnter, 1
	l.w = mpi.Waiter{}
}

// runThread is a helper lane's proc. It walks one iteration after
// another, idle in between, and ends only by a kill or an unwind.
func (l *laneRun) runThread(p *sim.Proc) {
	// A revoked communicator unwinds helper lanes quietly: recovery
	// belongs to the main lane, which observes the same revocation
	// through its own waits.
	defer func() {
		if rec := recover(); rec != nil && !mpi.IsRevoked(rec) {
			panic(rec)
		}
	}()
	l.run(p)
}

// run walks the lane on proc p, the lane's own: the steps on the event
// loop, and what a step cannot do — a blocking action, the Wait of a
// CPU-progressed request — here, on the goroutine. Lane 0 returns at its
// end; a helper lane's walk ends idle, parked inside RunSteps, and the
// next Execute's wake goes on from there.
func (l *laneRun) run(p *sim.Proc) {
	l.ctx.P = p
	for {
		p.RunSteps(l)
		switch l.at {
		case atGateWait:
			n := l.nodes[l.i]
			l.g.r.Wait(l.g.reqs[n.gates[l.s]][l.q])
			l.q++
			l.at = atGates
		case atActionRun:
			l.nodes[l.i].action(&l.ctx)
			l.at = atFinish
		default:
			return
		}
	}
}

// Step waits the node's dependencies and gates, runs its action, emits
// trace spans, fires its completion, and goes on to the next node.
// Untraced runs skip the timestamp bookkeeping — it exists only to
// position spans.
func (l *laneRun) Step(p *sim.Proc) bool {
	g, r := l.g, l.g.r
	for l.i < len(l.nodes) {
		n := l.nodes[l.i]
		switch l.at {
		case atEnter:
			l.d, l.s, l.q = 0, 0, 0
			if l.tracer != nil {
				l.entered = p.Now()
			}
			l.at = atDeps
		case atDeps:
			for ; l.d < len(n.deps); l.d++ {
				// Lane-0 predecessors have almost always fired already,
				// and a fired one costs no wait at all.
				if done := &g.done[n.deps[l.d].done]; l.w.Armed() || !done.Fired() {
					if !r.PollWait(p, &l.w, done) {
						return false
					}
				}
			}
			l.at = atGates
		case atGates:
			for ; l.s < len(n.gates); l.s, l.q = l.s+1, 0 {
				for reqs := g.reqs[n.gates[l.s]]; l.q < len(reqs); l.q++ {
					if reqs[l.q].Deferred() {
						l.at = atGateWait
						return true
					}
					if !r.PollRequest(&l.w, reqs[l.q]) {
						return false
					}
				}
			}
			if l.tracer != nil {
				l.began = p.Now()
				if l.began > l.entered && n.waitPhase != "" {
					l.tracer.NodeSpan(n.lane, n.kind, n.waitPhase, n.waitLabel, l.entered, l.began)
				}
			}
			l.at = atAction
		case atAction:
			l.at = atFinish
			if n.timed != nil {
				p.ArmUntil(n.timed(&l.ctx))
				return false
			}
			if n.action != nil {
				l.at = atActionRun
				return true
			}
		case atFinish:
			if l.tracer != nil {
				if end := p.Now(); end > l.began && n.phase != "" {
					l.tracer.NodeSpan(n.lane, n.kind, n.phase, n.label, l.began, end)
				}
			}
			if n.done >= 0 {
				g.done[n.done].Fire()
			}
			l.i++
			l.at = atEnter
		}
	}
	if l != &g.lanes[0] {
		p.ArmIdle() // until the next Execute
		return false
	}
	// Lane 0 outlasts its helpers. A well-formed graph orders it after
	// them (SC-OBR's join node), making these waits free.
	for ; l.join < len(g.lanes); l.join++ {
		if h := g.lanes[l.join].nodes; len(h) > 0 {
			if !r.PollWait(p, &l.w, &g.done[h[len(h)-1].done]) {
				return false
			}
		}
	}
	return true
}
