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
		//scaffe:nolint hotpath request lists reset to [:0] each Execute; append reuses high-water capacity
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
	index     int // position within the lane
	id        int // position within the plan: the node's completion in Graph.done
	action    func(*Ctx)
	deps      []int // ids of the cross-lane nodes this one waits for
	gates     []int // ids of the slots this one waits for
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
		n.deps = append(n.deps, d.id)
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
// of ranks: they may execute it concurrently (the parallel kernel does)
// because neither Bind nor Execute writes a sealed plan.
type Plan struct {
	lanes     [][]*Node
	laneNames []string
	nodes     int // nodes added, across lanes
	slots     int // gated slots
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
// synchronization point). The wait phase defaults to the action phase;
// override with WaitingIn.
func (p *Plan) Add(lane int, kind Kind, phase, label string, action func(*Ctx)) *Node {
	p.building(label)
	if lane < 0 || lane >= len(p.lanes) {
		panic(fmt.Sprintf("sched: node %q on unknown lane %d", label, lane))
	}
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Node, 0, nodeSlab)
	}
	p.slab = append(p.slab, Node{
		p: p, kind: kind, label: label, waitLabel: label + "/wait", phase: phase, waitPhase: phase,
		lane: lane, index: len(p.lanes[lane]), id: p.nodes, action: action,
	})
	p.nodes++
	n := &p.slab[len(p.slab)-1]
	p.lanes[lane] = append(p.lanes[lane], n)
	return n
}

// Seal ends construction: every later Lane, Add, After, Gated or
// WaitingIn panics.
func (p *Plan) Seal() { p.sealed = true }

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
	reqs  [][]*mpi.Request  // per slot, filled by Ctx.Put; nil until the first Execute
	done  []sim.Completion  // per node; nil on single-lane plans
	joins []*sim.Completion // per-Execute scratch
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
// iteration it: helper lanes are spawned as rank threads, lane 0 runs
// inline on the calling rank's main proc, and Execute returns only
// after every lane's last node has finished. tracer may be nil.
//
// Each Execute starts clean: it empties the gate slots and
// re-initializes the node completions, whose generation bump dissolves
// any reference left over from an abandoned (Revoked-unwound) previous
// execution.
func (g *Graph) Execute(tracer Tracer, it int) {
	pl := g.plan
	if g.reqs == nil {
		// First execution: the plan is complete (Bind demands a sealed
		// one, a New graph's is sealed here — a shared plan must not be
		// written), so size the instance. Single-lane plans have no
		// cross-lane edges and skip completions entirely.
		if !pl.sealed {
			pl.Seal()
		}
		g.reqs = make([][]*mpi.Request, pl.slots)
		if len(pl.lanes) > 1 {
			g.done = make([]sim.Completion, pl.nodes)
		}
	}
	k := g.r.W.K
	for i := range g.reqs {
		g.reqs[i] = g.reqs[i][:0]
	}
	for i := range g.done {
		g.done[i].Init(k)
	}
	joins := g.joins[:0]
	if len(pl.lanes) > 1 {
		// Spawning a thread writes the kernel's proc table and event
		// queue, outside every group.
		g.r.Proc.Exclusive()
	}
	for li := 1; li < len(pl.lanes); li++ {
		nodes := pl.lanes[li]
		if len(nodes) == 0 {
			continue
		}
		joins = append(joins, &g.done[nodes[len(nodes)-1].id])
		g.r.SpawnThread(pl.laneNames[li], func(p *sim.Proc) {
			// A revoked communicator unwinds helper lanes quietly:
			// recovery belongs to the main lane, which observes the
			// same revocation through its own waits.
			defer func() {
				if rec := recover(); rec != nil && !mpi.IsRevoked(rec) {
					panic(rec)
				}
			}()
			ctx := Ctx{R: g.r, P: p, It: it, g: g}
			for _, n := range nodes {
				g.runNode(n, &ctx, tracer)
			}
		})
	}
	g.joins = joins
	ctx := Ctx{R: g.r, P: g.r.Proc, It: it, g: g}
	for _, n := range pl.lanes[0] {
		g.runNode(n, &ctx, tracer)
	}
	// Safety net: a well-formed graph orders lane 0 after its helpers
	// (SC-OBR's join node), making these waits free.
	for _, j := range joins {
		g.r.WaitDep(g.r.Proc, j)
	}
}

// runNode waits the node's dependencies and gates, runs its action,
// emits trace spans, and fires its completion. The untraced path skips
// all timestamp bookkeeping — it exists only to position spans.
//
// runNode is the steady-state iteration's root: every node action the
// engine registers (Plan.Add stores the callback into Node.action)
// runs under it once per iteration, so the hotpath obligation declared
// here propagates through the call graph into those closures and
// everything they reach.
//
//scaffe:hotpath
func (g *Graph) runNode(n *Node, ctx *Ctx, tracer Tracer) {
	p := ctx.P
	if tracer == nil {
		for _, d := range n.deps {
			// Lane-0 predecessors have almost always fired already;
			// checking inline skips two call frames per satisfied edge.
			if done := &g.done[d]; !done.Fired() {
				g.r.WaitDep(p, done)
			}
		}
		for _, s := range n.gates {
			for _, req := range g.reqs[s] {
				g.r.Wait(req)
			}
		}
		if n.action != nil {
			n.action(ctx)
		}
		if g.done != nil {
			g.done[n.id].FireFrom(p)
		}
		return
	}
	start := p.Now()
	for _, d := range n.deps {
		if done := &g.done[d]; !done.Fired() {
			g.r.WaitDep(p, done)
		}
	}
	for _, s := range n.gates {
		for _, req := range g.reqs[s] {
			g.r.Wait(req)
		}
	}
	if waited := p.Now(); waited > start && n.waitPhase != "" {
		// The shared trace sink is outside every group: a batched
		// segment serializes before emitting.
		p.Exclusive()
		tracer.NodeSpan(n.lane, n.kind, n.waitPhase, n.waitLabel, start, waited)
	}
	at := p.Now()
	if n.action != nil {
		n.action(ctx)
	}
	if end := p.Now(); end > at && n.phase != "" {
		p.Exclusive()
		tracer.NodeSpan(n.lane, n.kind, n.phase, n.label, at, end)
	}
	if g.done != nil {
		g.done[n.id].FireFrom(p)
	}
}
